"""Independent cross-checks for the test suite.

Everything here deliberately avoids the library's internal representations:
root systems are rebuilt in epsilon coordinates with Fractions, ranks are
recomputed with dense fraction-free elimination, and the coefficient laws
are checked by direct enumeration.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import zlib
from fractions import Fraction
from pathlib import Path

from weylspecht import (
    act_vector,
    apply_kappa,
    apply_to_root,
    closure_from_simples,
    compose,
    enumerate_tabloids,
    identity,
    is_good_subsystem,
    is_useful_subsystem,
    is_useful_system,
    polytabloid,
    subgroup_generated,
    vanishing_obstruction,
)
from weylspecht.exactlin import QQ, SparseVector, row_reduce, vscale, vsub
from weylspecht.subsystem import normalizer
from weylspecht.weyl import product_keys

# --------------------------------------------------------------------------
# epsilon-coordinate models

EPS_SIMPLES = {
    "A3": ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)),
    "G2": ((1, -1, 0), (-2, 1, 1)),
    "D4": ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)),
}


def eps_dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def eps_reflect(alpha, v):
    c = 2 * eps_dot(alpha, v) / eps_dot(alpha, alpha)
    return tuple(Fraction(x) - c * a for x, a in zip(v, alpha))


def eps_closure(simples):
    """Brute-force closure of the simple roots under all member reflections."""
    roots = {tuple(map(Fraction, s)) for s in simples}
    roots |= {tuple(-x for x in r) for r in roots}
    changed = True
    while changed:
        changed = False
        snapshot = list(roots)
        for a in snapshot:
            for b in snapshot:
                c = eps_reflect(a, b)
                if c not in roots:
                    roots.add(c)
                    changed = True
    return roots


def eps_embed(eps_simples, coords):
    """Simple-basis coordinates to epsilon coordinates."""
    dim = len(eps_simples[0])
    return tuple(
        sum((Fraction(c) * s[k] for c, s in zip(coords, eps_simples)), Fraction(0))
        for k in range(dim)
    )


# --------------------------------------------------------------------------
# group closure, one `compose` per candidate

def bfs_by_compose(system, gens):
    """Breadth-first closure of e under right multiplication by `gens`,
    comparing whole elements: (elements, words) in discovery order, with
    words of 1-based generator positions. No limit is applied."""
    e = identity(system)
    elements = [e]
    words = [()]
    seen = {e.perm}
    head = 0
    while head < len(elements):
        w = elements[head]
        word = words[head]
        head += 1
        for i, g in enumerate(gens, start=1):
            nxt = compose(w, g)
            if nxt.perm not in seen:
                seen.add(nxt.perm)
                elements.append(nxt)
                words.append(word + (i,))
    return tuple(elements), tuple(words)


# --------------------------------------------------------------------------
# normalizers and their cosets, from the definitions

def normalizer_by_definition(system, psi, group):
    """(N(psi), N(J)) in group order: the w with w(psi) = psi as root sets,
    and among them those with w(J) = J."""
    roots = psi.roots
    jset = set(psi.simples)
    n_psi = tuple(
        w for w in group if {apply_to_root(system, w, r) for r in roots} == roots
    )
    n_j = tuple(
        w for w in n_psi if {apply_to_root(system, w, j) for j in jset} == jset
    )
    return n_psi, n_j


def normalizer_reps_by_products(system, group, n_psi):
    """E_psi: scanning W in BFS order, keep each element whose coset is not
    yet marked, and mark its coset w N(psi) by the product key of w n for
    every n in N(psi). The marks fill a set with one entry per element."""
    key, *steps = product_keys(system, [group.identity, *n_psi])
    seen: set = set()
    reps = []
    for w in group:
        p = w.perm
        if key(p) in seen:
            continue
        reps.append(w)
        seen.update(step(p) for step in steps)
    return tuple(reps)


# --------------------------------------------------------------------------
# dense fraction-free rank

def bareiss_rank(mat) -> int:
    """Rank of an integer matrix by one-step fraction-free elimination."""
    m = [list(row) for row in mat]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    r = 0
    prev = 1
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == n_rows:
            break
    return rank


def dense_rows(basis):
    """SubspaceBasis over Q to dense integer rows (cleared denominators)."""
    out = []
    for row in basis.rows:
        denom = 1
        for c in row.entries.values():
            denom = denom * c.denominator // _gcd(denom, c.denominator)
        dense = [0] * basis.dim
        for i, c in row.entries.items():
            dense[i] = int(c * denom)
        out.append(dense)
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# --------------------------------------------------------------------------
# corpus enumeration

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``, read only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def candidate_subsystems(system, max_size=2):
    """Subsystems generated by valid simple subsets of the positive roots."""
    out = []
    positives = system.roots[: system.positive_count]
    for size in range(max_size + 1):
        for combo in itertools.combinations(positives, size):
            try:
                out.append(closure_from_simples(system, combo))
            except ValueError:
                continue
    return out


def disjoint_pairs(system, max_size=2):
    """All (psi, psi_prime) with psi_prime in the complement of psi."""
    cands = candidate_subsystems(system, max_size)
    return [
        (a, b) for a in cands for b in cands if not (a.roots & b.roots)
    ]


# --------------------------------------------------------------------------
# the action on tabloids, from its definition

def index_action_by_keys(space, w):
    """Tabloid i goes to the tabloid whose key is w applied to key i."""
    return tuple(
        space.index[frozenset(apply_to_root(space.system, w, r) for r in t.key)]
        for t in space.tabloids
    )


def cyclic_span_by_orbit(space, field, v):
    """The W-submodule generated by v, as the span of all |W| translates."""
    return row_reduce(
        field, [act_vector(space, field, w, v) for w in space.group], dim=len(space)
    )


# --------------------------------------------------------------------------
# coefficient laws, checked by direct enumeration

def _unit(dim, i):
    return SparseVector(dim, {i: QQ.one})


def _is_multiple(k, e_vec):
    if k.is_zero():
        return True
    if e_vec.is_zero():
        return False
    j = min(k.entries)
    c = e_vec.entries.get(j)
    if c is None:
        return False
    ratio = k.entries[j] / c
    return vsub(QQ, k, vscale(QQ, ratio, e_vec)).is_zero()


def coefficient_law_violations(system, group, psi, psi_prime, check_norm=False):
    """Check the polytabloid coefficient laws for one pair; returns messages.

    Covers: unit coefficients, non-vanishing for useful pairs, the
    appears-iff-factorizes law, disjointness of appearing cosets, kappa
    killing meeting cosets, and for good pairs kappa collapsing onto the
    base polytabloid (hence, by linearity, on any vector).
    """
    bad = []
    tag = f"{system.label} J={psi.simples} J'={psi_prime.simples}"
    useful_sys = is_useful_system(system, psi, psi_prime)
    useful = is_useful_subsystem(system, psi, psi_prime, group=group)
    pair = normalizer(system, psi, group)
    if useful and not useful_sys:
        bad.append(f"{tag}: useful sub-system but not a useful system")
    if len(pair.n_j) == 1 and useful_sys != useful:
        bad.append(f"{tag}: predicates differ although N(J) is trivial")
    if not useful:
        return bad

    space = enumerate_tabloids(system, psi, group, psi_prime)
    e_vec = polytabloid(space, QQ, identity(system))

    for c in e_vec.entries.values():
        if c.denominator != 1 or abs(c.numerator) != 1:
            bad.append(f"{tag}: coefficient {c} outside {{-1, +1}}")
    if e_vec.is_zero():
        bad.append(f"{tag}: polytabloid vanished for a useful pair")

    products = {
        compose(sigma, rho).perm
        for sigma in space.col_group
        for rho in space.n_psi
    }
    for i, t in enumerate(space.tabloids):
        appears = i in e_vec.entries
        if appears != (t.rep.perm in products):
            bad.append(f"{tag}: appearance/factorization mismatch at {t.rep_word}")
        meets = bool(t.key & psi_prime.roots)
        if appears and meets:
            bad.append(f"{tag}: appearing coset meets the column system")
        kappa_i = apply_kappa(space, QQ, _unit(len(space), i))
        if meets and not kappa_i.is_zero():
            bad.append(f"{tag}: kappa kept a coset meeting the column system")

    witness = vanishing_obstruction(system, psi, psi_prime, group=group)
    if witness is not None and not e_vec.is_zero():
        bad.append(f"{tag}: obstruction found but polytabloid is nonzero")

    good = is_good_subsystem(system, psi, psi_prime, group=group)
    if good.is_good:
        for i in range(len(space)):
            k = apply_kappa(space, QQ, _unit(len(space), i))
            if not (
                k.is_zero()
                or k.entries == e_vec.entries
                or vsub(QQ, k, vscale(QQ, QQ.from_int(-1), e_vec)).is_zero()
            ):
                bad.append(f"{tag}: kappa of coset {i} is not 0 or +-e")
        rng = random.Random(
            zlib.crc32(repr((system.label, psi.simples, psi_prime.simples)).encode())
        )
        m = SparseVector(
            len(space),
            {
                i: QQ.from_int(c)
                for i, c in enumerate(rng.randint(-3, 3) for _ in range(len(space)))
                if c
            },
        )
        if not _is_multiple(apply_kappa(space, QQ, m), e_vec):
            bad.append(f"{tag}: kappa of a random vector is not a multiple of e")
        if check_norm:
            import warnings

            from weylspecht import build_specht_module, character_norm

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mod = build_specht_module(system, psi, psi_prime, QQ, group=group)
            if mod.dimension and character_norm(mod) != 1:
                bad.append(f"{tag}: good pair with character norm != 1")
    return bad


def semidirect_violations(system, group, psi):
    """|N(psi)| = |W(psi)| * |N(J)| with unique factorization n = w u."""
    bad = []
    pair = normalizer(system, psi, group)
    w_psi = subgroup_generated(system, psi.simples)
    if len(pair.n_psi) != len(w_psi) * len(pair.n_j):
        bad.append(f"{system.label} J={psi.simples}: order product mismatch")
        return bad
    n_set = {w.perm for w in pair.n_psi}
    counts: dict = {}
    for w in w_psi:
        for u in pair.n_j:
            p = compose(w, u).perm
            counts[p] = counts.get(p, 0) + 1
    if set(counts) != n_set or any(v != 1 for v in counts.values()):
        bad.append(f"{system.label} J={psi.simples}: factorization not unique")
    return bad

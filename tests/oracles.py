"""Independent cross-checks for the test suite.

Everything here deliberately avoids the library's internal representations:
root systems are rebuilt in epsilon coordinates with Fractions, ranks are
recomputed with dense fraction-free elimination, and the coefficient laws
are checked by direct enumeration.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import random
import warnings
import zlib
from collections import deque
from fractions import Fraction
from pathlib import Path

from weylspecht import (
    act_vector,
    apply_kappa,
    apply_to_root,
    build_root_system,
    build_specht_module,
    character_value,
    closure_from_simples,
    compose,
    enumerate_tabloids,
    identity,
    is_good_subsystem,
    is_useful_subsystem,
    is_useful_system,
    orthogonal_complement,
    parse_root,
    polytabloid,
    sign,
    subgroup_generated,
    vanishing_obstruction,
)
from weylspecht import rootsys
from weylspecht.exactlin import (
    QQ,
    SparseVector,
    SubspaceBasis,
    contains,
    from_dense,
    row_reduce,
    vscale,
    vsub,
)
from weylspecht.rootsys import inner_product, negate, reflect_root
from weylspecht.weyl import coset_walk, fold_preorder, gather
from weylspecht.subsystem import (
    Subsystem,
    _connected_components,
    cartan_matrix,
)

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


def bfs_group_words(system):
    """W's words from the breadth-first walk of the simple roots under the
    simple reflections, in the walk's order: each element reached first by
    its lex-least reduced word, by length and then word. No limit is
    applied."""
    seed = tuple(system.index[a] for a in system.simple_roots())
    walk = coset_walk(system.simple_reflection_perms, seed, limit=math.inf)
    return (word for _, word, _ in walk)


def words_by_perm(group):
    """The recorded word of each element of a generated group, keyed by
    its permutation."""
    return {w.perm: word for w, word in zip(group.elements, group.words)}


# --------------------------------------------------------------------------
# subsystems by search: pair-loop closure, closed-set simple systems and
# Cartan matrices matched against every reference diagram by relabeling

@functools.cache
def reflection_table(label):
    """t[a][b] is the index of s_a(b), for root indices a and b of the
    named system, so the searches below reflect by lookup."""
    system = build_root_system(label)
    roots = system.roots
    return tuple(
        tuple(system.index[reflect_root(system, a, b)] for b in roots) for a in roots
    )


def reflection_closure_by_pairs(system, simples):
    """Reflect every pair of roots in ±J until no new root appears."""
    table = reflection_table(system.label)
    roots = {system.index[r] for r in simples}
    roots.update(system.index[negate(r)] for r in simples)
    changed = True
    while changed:
        changed = False
        snapshot = list(roots)
        for a in snapshot:
            for b in snapshot:
                c = table[a][b]
                if c not in roots:
                    roots.add(c)
                    changed = True
    return frozenset(system.roots[i] for i in roots)


def simple_system_by_search(system, roots):
    """Positive members of a negation-stable, reflection-closed root set that
    are not sums of two positive members; raises on any other set."""
    table = reflection_table(system.label)
    rset = frozenset(tuple(r) for r in roots)
    for r in rset:
        if r not in system.index:
            raise ValueError(f"{r} is not a root of {system.label}")
        if negate(r) not in rset:
            raise ValueError("set is not stable under negation")
    idx = {system.index[r] for r in rset}
    if any(table[a][b] not in idx for a in idx for b in idx):
        raise ValueError("set is not reflection-closed")
    positives = sorted(r for r in rset if system.is_positive(r))
    sums = {
        tuple(x + y for x, y in zip(p, q))
        for p, q in itertools.combinations_with_replacement(positives, 2)
    }
    return tuple(p for p in positives if p not in sums)


def _reference_cartans(rank):
    candidates = [("A", rank)]
    if rank >= 2:
        candidates.append(("B", rank))
    if rank >= 3:
        candidates.append(("C", rank))
    if rank >= 4:
        candidates.append(("D", rank))
    if rank == 2:
        candidates.append(("G", 2))
    if rank == 4:
        candidates.append(("F", 4))
    for series, r in candidates:
        yield f"{series}{r}", rootsys._cartan_rows(rootsys._gram(series, r))


def _cartan_isomorphic(a, b):
    """Whether some relabeling of a's nodes gives b, by backtracking."""
    k = len(a)
    prof_a = [tuple(sorted(row)) for row in a]
    prof_b = [tuple(sorted(row)) for row in b]
    if sorted(prof_a) != sorted(prof_b):
        return False
    assign = [0] * k
    used = [False] * k

    def extend(i):
        if i == k:
            return True
        for cand in range(k):
            if used[cand] or prof_a[cand] != prof_b[i]:
                continue
            if any(
                a[cand][assign[j]] != b[i][j] or a[assign[j]][cand] != b[j][i]
                for j in range(i)
            ):
                continue
            assign[i] = cand
            used[cand] = True
            if extend(i + 1):
                return True
            used[cand] = False
        return False

    return extend(0)


def classify_by_relabeling(system, comp):
    c = cartan_matrix(system, comp)
    for label, ref in _reference_cartans(len(comp)):
        if _cartan_isomorphic(c, ref):
            return label
    raise ValueError(f"unrecognized component diagram of rank {len(comp)}")


def _classified_by_search(system, roots, simples):
    components = _connected_components(system, simples)
    return Subsystem(
        ambient_label=system.label,
        roots=frozenset(roots),
        simples=simples,
        components=components,
        component_labels=tuple(classify_by_relabeling(system, c) for c in components),
    )


def closure_by_search(system, simples):
    """`closure_from_simples` by search: the pair-loop closure, J accepted
    when the closed set's simple system is J, components by relabeling.
    Raises the same ValueErrors in the same order."""
    simples = tuple(tuple(r) for r in simples)
    for r in simples:
        if r not in system.index or not system.is_positive(r):
            raise ValueError(f"{r} is not a positive root of {system.label}")
    if simples:
        rank = row_reduce(QQ, [from_dense(QQ, r) for r in simples]).rank
        if rank != len(simples):
            raise ValueError("J is linearly dependent")
    roots = reflection_closure_by_pairs(system, simples)
    if simples and set(simples) != set(simple_system_by_search(system, roots)):
        raise ValueError("J is not the simple system of the subsystem it generates")
    return _classified_by_search(system, roots, simples)


def orthogonal_complement_by_search(system, psi):
    """The roots orthogonal to psi, with their simple system checked closed."""
    ortho = [
        r
        for r in system.roots
        if all(inner_product(system, r, s) == 0 for s in psi.simples)
    ]
    return _classified_by_search(system, ortho, simple_system_by_search(system, ortho))


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


def distinguished_reps_by_scan(system, psi, group):
    """D_psi: the elements of W, in group order, keeping every simple root
    of psi positive."""
    j_idx = [system.root_index(r) for r in psi.simples]
    pc = system.positive_count
    return tuple(w for w in group if all(w.perm[j] < pc for j in j_idx))


def normalizer_reps_by_products(system, group, n_psi):
    """E_psi: scanning W in BFS order, keep each element whose coset is not
    yet marked, and mark its coset w N(psi) by the permutation of w n for
    every n in N(psi). The marks fill a set with one entry per element."""
    seen: set = set()
    reps = []
    for w in group:
        if w.perm in seen:
            continue
        reps.append(w)
        seen.update(compose(w, n).perm for n in n_psi)
    return tuple(reps)


# --------------------------------------------------------------------------
# usefulness, the witness and restricted reflections, from the definitions

def _meets_trivially(system, a, b):
    return {w.perm for w in a} & {w.perm for w in b} == {identity(system).perm}


def is_useful_pair_by_closures(system, psi, psi_prime, row_group, col_group):
    """row_group meets col_group trivially, and so do W(psi⊥) and W(psi'⊥),
    each closed from the simple system of the orthogonal complement."""
    if not _meets_trivially(system, row_group, col_group):
        return False
    return _meets_trivially(
        system,
        subgroup_generated(system, orthogonal_complement(system, psi).simples),
        subgroup_generated(system, orthogonal_complement(system, psi_prime).simples),
    )


def useful_subsystem_by_closures(system, psi, psi_prime, n_psi):
    """N(psi) against the closure W(psi'), and both complements closed."""
    col_group = subgroup_generated(system, psi_prime.simples)
    return is_useful_pair_by_closures(system, psi, psi_prime, n_psi, col_group)


def useful_system_by_closures(system, psi, psi_prime):
    """W(J) against W(J'), and both complements closed."""
    w_j = subgroup_generated(system, psi.simples)
    w_jp = subgroup_generated(system, psi_prime.simples)
    return is_useful_pair_by_closures(system, psi, psi_prime, w_j, w_jp)


def col_stabilizer_by_filter(system, n_psi, psi_prime):
    """N(psi) meet W(psi'): the elements of N(psi), in its order, that lie in
    the closure W(psi')."""
    col = {w.perm for w in subgroup_generated(system, psi_prime.simples)}
    return tuple(w for w in n_psi if w.perm in col)


def obstruction_by_scan(system, n_psi, psi_prime):
    """The first element of N(psi) that lies in W(psi'), is not e, squares
    to e and has sign -1."""
    e = identity(system)
    for w in col_stabilizer_by_filter(system, n_psi, psi_prime):
        if w != e and compose(w, w) == e and sign(system, w) == -1:
            return w
    return None


def restricted_reflections_by_fixed_space(system, psi, elements):
    """The elements whose fixed space, solved as the kernel of the rank x
    rank matrix of w - 1, meets span(psi) in codimension one, and whose
    square fixes J."""
    if not psi.simples:
        return ()
    simples = system.simple_roots()
    span = row_reduce(QQ, [from_dense(QQ, j) for j in psi.simples])
    out = []
    for w in elements:
        cols = [apply_to_root(system, w, s) for s in simples]
        rows = [
            from_dense(
                QQ,
                [Fraction(cols[j][i]) - (1 if i == j else 0) for j in range(system.rank)],
            )
            for i in range(system.rank)
        ]
        fixed = form_complement(row_reduce(QQ, rows, dim=system.rank))
        if intersect(fixed, span).rank != span.rank - 1:
            continue
        square = compose(w, w)
        if all(apply_to_root(system, square, j) == j for j in psi.simples):
            out.append(w)
    return tuple(out)


# --------------------------------------------------------------------------
# the submodule dichotomy and the radical, from whole subspaces

def form_complement(basis: SubspaceBasis) -> SubspaceBasis:
    """All vectors pairing to zero with every basis row under the delta form.

    Since the delta form has identity Gram matrix on the standard basis, this
    is the nullspace of the matrix whose rows are the basis vectors; its
    dimension is always dim - rank.
    """
    field = basis.field
    pivset = set(basis.pivots)
    free = [j for j in range(basis.dim) if j not in pivset]
    vecs = []
    for f in free:
        entries = {f: field.one}
        for row, p in zip(basis.rows, basis.pivots):
            c = row.entries.get(f)
            if c is not None:
                entries[p] = field.neg(c)
        vecs.append(SparseVector(basis.dim, entries))
    return row_reduce(field, vecs, dim=basis.dim)


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of the intersection of two subspaces.

    The delta form is nondegenerate over every field, so the intersection is
    the complement of the sum of the two complements.
    """
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    perps = form_complement(a).rows + form_complement(b).rows
    return form_complement(row_reduce(a.field, perps, dim=a.dim))


def probe_violation_by_complement(module, v):
    """Whether the cyclic submodule U spun from v breaks the dichotomy, asked
    of S as a whole: some row of S lies outside U, and some row of U lies
    outside the form complement of S."""
    cyclic = cyclic_span_by_field_ops(module.space, module.field, v)
    perp = form_complement(module.basis)
    s_in_u = all(contains(cyclic, r) for r in module.basis.rows)
    u_in_perp = all(contains(perp, r) for r in cyclic.rows)
    return not (s_in_u or u_in_perp)


def quotient_dimension_by_complements(module):
    """(dim S, dim radical, dim S - dim radical), the radical S meet S-perp
    built as the complement of S + S-perp."""
    basis = module.basis
    perp = form_complement(basis)
    radical = form_complement(
        row_reduce(module.field, perp.rows + basis.rows, dim=basis.dim)
    ).rank
    return (basis.rank, radical, basis.rank - radical)


def quotient_dimension_by_sum(module):
    """(dim S, dim radical, dim S - dim radical) in any characteristic: the
    form is nondegenerate, so the radical S meet S-perp has the dimension
    of the complement of S + S-perp."""
    basis = module.basis
    span = row_reduce(module.field, basis.rows + form_complement(basis).rows, dim=basis.dim)
    radical = basis.dim - span.rank
    return (basis.rank, radical, basis.rank - radical)


# --------------------------------------------------------------------------
# matrices in a given basis, one linear system per column


def _coordinates_by_solving(field, basis_vectors, v):
    """Coordinates of v in the given independent vectors, or None if
    outside, from the canonical form of the transposed system [B | v].

    Raises ValueError when the given vectors are linearly dependent.
    """
    bl = list(basis_vectors)
    k = len(bl)
    support = set(v.entries)
    for b in bl:
        if b.dim != v.dim:
            raise ValueError("dimension mismatch")
        support.update(b.entries)
    rows = []
    for t in sorted(support):
        entries = {}
        for i, b in enumerate(bl):
            c = b.entries.get(t)
            if c is not None:
                entries[i] = c
        c = v.entries.get(t)
        if c is not None:
            entries[k] = c
        rows.append(SparseVector(k + 1, entries))
    rr = row_reduce(field, rows, dim=k + 1)
    if k in rr.pivots:
        return None
    if rr.rank < k:
        raise ValueError("basis vectors are linearly dependent")
    coords = [field.zero] * k
    for row, p in zip(rr.rows, rr.pivots):
        coords[p] = row.entries.get(k, field.zero)
    return coords


def matrix_in_basis_by_solving(module, w, basis_vectors):
    """Matrix of w on the module in the given basis: column j holds the
    coordinates of w b_j, each solved for on its own."""
    field, bl = module.field, list(basis_vectors)
    cols = []
    for b in bl:
        coords = _coordinates_by_solving(field, bl, act_vector(module.space, field, w, b))
        if coords is None:
            raise ValueError("action leaves the span of the given basis")
        cols.append(coords)
    return tuple(tuple(col[i] for col in cols) for i in range(len(bl)))


def sparse_probe_vector(field, dim, rng):
    """One to three tabloids, each with coefficient +-1."""
    picks = rng.sample(range(dim), min(dim, rng.randint(1, 3)))
    return SparseVector(dim, {i: field.from_int(rng.choice((-1, 1))) for i in picks})


# --------------------------------------------------------------------------
# primality by trial division

def is_prime_by_trial_division(n: int) -> bool:
    """No divisor d with 2 <= d <= sqrt(n); trying 2 and the odd d."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


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
# elimination by field operations

def _axpy_by_field_ops(field, target, c, source):
    # target += c * source, in place, dropping zeros
    for i, s in source.items():
        val = field.add(target.get(i, field.zero), field.mul(c, s))
        if val == field.zero:
            target.pop(i, None)
        else:
            target[i] = val


def _reduce_by_field_ops(field, entries, by_pivot):
    # subtract monic pivot rows until the leading index is not a pivot
    while entries:
        m = min(entries)
        row = by_pivot.get(m)
        if row is None:
            break
        _axpy_by_field_ops(field, entries, field.neg(entries[m]), row)
    return entries


def _insert_by_field_ops(field, by_pivot, v):
    # reduce v against the monic rows; add the remainder as a new monic row
    e = _reduce_by_field_ops(field, dict(v.entries), by_pivot)
    if not e:
        return False
    p = min(e)
    inv = field.inv(e[p])
    by_pivot[p] = {i: field.mul(inv, c) for i, c in e.items()}
    return True


def _basis_by_field_ops(field, dim, by_pivot):
    # clear each pivot column from the other monic rows, last pivot first
    pivots = sorted(by_pivot)
    for p in reversed(pivots):
        prow = by_pivot[p]
        for q in pivots:
            if q == p:
                continue
            c = by_pivot[q].get(p)
            if c is not None:
                _axpy_by_field_ops(field, by_pivot[q], field.neg(c), prow)
    rows = tuple(SparseVector(dim, by_pivot[p]) for p in pivots)
    return SubspaceBasis(field, dim, rows, tuple(pivots))


def row_reduce_by_field_ops(field, vectors, dim=None):
    """The canonical RREF by Gauss-Jordan elimination over monic rows, with
    every scalar operation a call to a method of the field."""
    vectors = list(vectors)
    if dim is None:
        dim = vectors[0].dim
    by_pivot = {}
    for v in vectors:
        assert v.dim == dim
        _insert_by_field_ops(field, by_pivot, v)
    return _basis_by_field_ops(field, dim, by_pivot)


def cyclic_span_by_field_ops(space, field, v):
    """The W-submodule generated by v, spun under the simple reflections
    with the field-operation elimination above."""
    dim = len(space)
    by_pivot = {}
    queue = deque([v] if _insert_by_field_ops(field, by_pivot, v) else ())
    while queue:
        u = queue.popleft()
        for table in space._tables:
            img = SparseVector(dim, {table[i]: c for i, c in u.entries.items()})
            if _insert_by_field_ops(field, by_pivot, img):
                queue.append(img)
    return _basis_by_field_ops(field, dim, by_pivot)


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


def benchmark_pair(name):
    """(system, psi, psi') of the named benchmark pair."""
    ambient, j_text, jp_text = load_workloads().PAIRS[name]
    system = build_root_system(ambient)
    psi, pp = (
        closure_from_simples(system, [parse_root(system, r) for r in text.split(",")])
        for text in (j_text, jp_text)
    )
    return system, psi, pp


def benchmark_pair_module(name, field):
    """The module of the named benchmark pair over `field`; its space
    generates W when `group` is first read."""
    system, psi, pp = benchmark_pair(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_specht_module(system, psi, pp, field)


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


def character_norm_by_words(module):
    """(1/|W|) sum of psi(w)^2 over W, each trace read after folding the
    whole word of w; a rational character is real, so psi(w^-1) = psi(w)."""
    words = module.space.group.words
    return sum((character_value(module, w) ** 2 for w in words), Fraction(0)) / len(words)


def character_norm_by_fold(module):
    """(1/|W|) sum of psi(w)^2 over W, each trace read at the canonical
    rows' pivots from the tabloid permutation m(w^-1), which is one table
    step from its parent's in W's preorder; the rows are cleared by the lcm
    D of their denominators, and the integer sum is divided by |W| D^2."""
    basis = module.basis
    if not basis.rank:
        return Fraction(0)
    space = module.space
    den = math.lcm(*(c.denominator for r in basis.rows for c in r.entries.values()))
    rows = [{i: int(c * den) for i, c in r.entries.items()} for r in basis.rows]
    at_pivots, group, total = gather(basis.pivots), space.group, 0
    for _, m in fold_preorder(group.preorder, space._steps, tuple(range(len(space)))):
        trace = sum(filter(None, map(dict.get, rows, at_pivots(m))))
        total += trace * trace
    return Fraction(total, len(group) * den * den)


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
    useful = is_useful_subsystem(system, psi, psi_prime)
    n_j = normalizer_by_definition(system, psi, group)[1]
    if useful and not useful_sys:
        bad.append(f"{tag}: useful sub-system but not a useful system")
    if len(n_j) == 1 and useful_sys != useful:
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

    witness = vanishing_obstruction(system, psi, psi_prime)
    if witness is not None and not e_vec.is_zero():
        bad.append(f"{tag}: obstruction found but polytabloid is nonzero")

    good = is_good_subsystem(system, psi, psi_prime)
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
    n_psi, n_j = normalizer_by_definition(system, psi, group)
    w_psi = subgroup_generated(system, psi.simples)
    if len(n_psi) != len(w_psi) * len(n_j):
        bad.append(f"{system.label} J={psi.simples}: order product mismatch")
        return bad
    n_set = {w.perm for w in n_psi}
    counts: dict = {}
    for w in w_psi:
        for u in n_j:
            p = compose(w, u).perm
            counts[p] = counts.get(p, 0) + 1
    if set(counts) != n_set or any(v != 1 for v in counts.values()):
        bad.append(f"{system.label} J={psi.simples}: factorization not unique")
    return bad


# --------------------------------------------------------------------------
# classical type A, from the combinatorics of partitions alone


def distinct_part_partitions(n, cap=None):
    """The partitions of n into distinct parts, largest part first."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [
        (k,) + rest
        for k in range(min(n, cap), 0, -1)
        for rest in distinct_part_partitions(n - k, k - 1)
    ]


def hook_lengths(shape):
    """The hook length of every cell of the Young diagram of `shape`."""
    conjugate = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    return [
        shape[i] - j + conjugate[j] - i - 1
        for i in range(len(shape))
        for j in range(shape[i])
    ]


def hook_dimension(shape):
    """f^lambda, the number of standard tableaux, by the hook length formula."""
    return math.factorial(sum(shape)) // math.prod(hook_lengths(shape))


def is_p_core(shape, p):
    """No hook length divisible by p (James 1978, 18.1)."""
    return all(h % p for h in hook_lengths(shape))


def row_reading_pair(shape):
    """(J, J') in A_{n-1} for the tableau of `shape` filled with 1..n row by
    row: the consecutive differences e_a - e_b along each row, and down
    each column, in simple-root coordinates."""
    n = sum(shape)
    rows, start = [], 1
    for r in shape:
        rows.append(range(start, start + r))
        start += r
    cols = [[row[c] for row in rows if c < len(row)] for c in range(shape[0])]

    def differences(lines):
        # e_a - e_b is alpha_a + ... + alpha_{b-1}
        return [
            tuple(int(a <= k < b) for k in range(1, n))
            for line in lines
            for a, b in zip(line, line[1:])
        ]

    return differences(rows), differences(cols)


def standard_tableaux(shape):
    """The standard tableaux of `shape` filled with 1..n, each a tuple of
    rows: entries increase along each row and down each column."""
    n = sum(shape)
    rows = [[] for _ in shape]

    def fill(k):
        if k > n:
            yield tuple(map(tuple, rows))
            return
        for i, length in enumerate(shape):
            # k goes at the end of row i once the cell above it is filled
            if len(rows[i]) < length and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(k)
                yield from fill(k + 1)
                rows[i].pop()

    return list(fill(1))


def _permutation_sign(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def standard_polytabloid(t):
    """James's e_t, the signed sum of the tabloids {s t} over the column
    group of t (LNM 682, §8), as a dict from tabloids, tuples of row sets,
    to integer coefficients."""
    cols = [[row[c] for row in t if c < len(row)] for c in range(len(t[0]))]
    e = {}
    for images in itertools.product(*(itertools.permutations(col) for col in cols)):
        rows = [[] for _ in t]
        for image in images:
            for i, entry in enumerate(image):
                rows[i].append(entry)
        tabloid = tuple(map(frozenset, rows))
        sign = math.prod(_permutation_sign(image) for image in images)
        e[tabloid] = e.get(tabloid, 0) + sign
    return e


def rank_mod_p(matrix, p):
    """Rank of an integer matrix mod p, by dense Gaussian elimination."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def james_dimension(shape, p):
    """dim D^lambda over F_p: the standard polytabloids are a basis of
    S^lambda, and D^lambda = S^lambda / (S^lambda meet its complement) has
    the dimension of the rank of their Gram matrix under the tabloid form."""
    es = [standard_polytabloid(t) for t in standard_tableaux(shape)]
    gram = [[sum(c * f.get(k, 0) for k, c in e.items()) for f in es] for e in es]
    return rank_mod_p(gram, p)

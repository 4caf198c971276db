"""Subsystems of a root system: closures, classification, normalizers and
coset transversals.

A subsystem carries its simple system J as given; classification matches
each connected component's Cartan matrix against the standard diagrams by
brute-force relabeling, so labels are scale-free (a long A1 and a short A1
both classify as A1).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from fractions import Fraction
from operator import itemgetter

from . import rootsys
from .exactlin import QQ, form_complement, from_dense, intersect, row_reduce
from .rootsys import Root, RootSystem, inner_product, negate, reflect_root
from .weyl import (
    GeneratedGroup,
    GroupElement,
    apply_to_root,
    compose,
    identity,
    subgroup_generated,
)


@dataclass(frozen=True)
class Subsystem:
    """A reflection-closed root subset with its simple system."""

    ambient_label: str
    roots: frozenset
    simples: tuple[Root, ...]
    components: tuple[tuple[Root, ...], ...]
    component_labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.roots)

    @property
    def label(self) -> str:
        if not self.component_labels:
            return "0"
        counts = Counter(self.component_labels)
        parts = []
        for lab in sorted(counts):
            n = counts[lab]
            parts.append(f"{n}{lab}" if n > 1 else lab)
        return "+".join(parts)


def _reflection_closure(system: RootSystem, simples) -> frozenset:
    roots = set(simples)
    roots.update(negate(r) for r in simples)
    changed = True
    while changed:
        changed = False
        snapshot = list(roots)
        for a in snapshot:
            for b in snapshot:
                c = reflect_root(system, a, b)
                if c not in roots:
                    roots.add(c)
                    changed = True
    return frozenset(roots)


def closure_from_simples(system: RootSystem, simples) -> Subsystem:
    """Smallest reflection-closed subset containing J, classified from J.

    J must consist of linearly independent positive roots and must be the
    simple system of the subsystem it generates (pairwise obtuse); the last
    condition is what makes the distinguished-coset characterization and the
    Dynkin classification meaningful.
    """
    simples = tuple(tuple(r) for r in simples)
    for r in simples:
        if r not in system.index or not system.is_positive(r):
            raise ValueError(f"{r} is not a positive root of {system.label}")
    if simples:
        rank = row_reduce(QQ, [from_dense(QQ, r) for r in simples]).rank
        if rank != len(simples):
            raise ValueError("J is linearly dependent")
    roots = _reflection_closure(system, simples)
    if simples and set(simples) != set(simple_system_of(system, roots)):
        raise ValueError("J is not the simple system of the subsystem it generates")
    return _classified(system, roots, simples)


def simple_system_of(system: RootSystem, roots) -> tuple[Root, ...]:
    """Positive members not expressible as a sum of two positive members.

    The input must be reflection-closed and stable under negation; rebuilding
    the closure of the result reproduces the input set.
    """
    rset = frozenset(tuple(r) for r in roots)
    for r in rset:
        if r not in system.index:
            raise ValueError(f"{r} is not a root of {system.label}")
        if negate(r) not in rset:
            raise ValueError("set is not stable under negation")
    for a in rset:
        for b in rset:
            if reflect_root(system, a, b) not in rset:
                raise ValueError("set is not reflection-closed")
    positives = sorted(r for r in rset if system.is_positive(r))
    sums = set()
    for p, q in itertools.combinations_with_replacement(positives, 2):
        sums.add(tuple(x + y for x, y in zip(p, q)))
    return tuple(p for p in positives if p not in sums)


def _classified(system: RootSystem, roots, simples) -> Subsystem:
    components = _connected_components(system, simples)
    labels = tuple(_classify_component(system, comp) for comp in components)
    return Subsystem(
        ambient_label=system.label,
        roots=frozenset(roots),
        simples=simples,
        components=components,
        component_labels=labels,
    )


def orthogonal_complement(system: RootSystem, psi: Subsystem) -> Subsystem:
    """The largest subsystem orthogonal to psi."""
    ortho = [
        r
        for r in system.roots
        if all(inner_product(system, r, s) == 0 for s in psi.simples)
    ]
    return _classified(system, ortho, simple_system_of(system, ortho))


@dataclass(frozen=True)
class Normalizer:
    """N(psi), N(J) and the coset representatives E_psi, in group order."""

    n_psi: tuple[GroupElement, ...]
    n_j: tuple[GroupElement, ...]
    reps: tuple[GroupElement, ...]


def _root_indices(system: RootSystem, group: GeneratedGroup, roots) -> list[int]:
    # the scans below read w.perm directly, so check the group's system once
    if group.system_label != system.label:
        raise ValueError("group belongs to a different root system")
    return [system.root_index(r) for r in roots]


def normalizer(system: RootSystem, psi: Subsystem, group: GeneratedGroup) -> Normalizer:
    """One sweep over W, keyed by the image w(psi) as a set of root indices.

    w lies in N(psi) when its key is psi's own, and in N(J) when it also
    maps J into J. Elements with equal keys form one left coset of N(psi),
    so E_psi is the first element seen with each key; the BFS order makes
    it of minimal length, ties broken by enumeration order.
    """
    j_idx = _root_indices(system, group, psi.simples)
    jset = set(j_idx)
    r_idx = [system.root_index(r) for r in psi.roots]
    own = frozenset(r_idx)
    # a nonempty psi has at least two roots, so the getter returns a tuple
    image = itemgetter(*r_idx) if r_idx else lambda p: ()
    first: dict = {}
    n_psi = []
    n_j = []
    for w in group:
        p = w.perm
        key = frozenset(image(p))
        first.setdefault(key, w)
        if key == own:
            n_psi.append(w)
            if all(p[j] in jset for j in j_idx):
                n_j.append(w)
    reps = tuple(first.values())
    assert len(reps) * len(n_psi) == len(group)
    return Normalizer(n_psi=tuple(n_psi), n_j=tuple(n_j), reps=reps)


def _meets_trivially(system: RootSystem, a, b) -> bool:
    return {w.perm for w in a} & {w.perm for w in b} == {identity(system).perm}


def is_useful_pair(
    system: RootSystem, psi: Subsystem, psi_prime: Subsystem, row_group, col_group
) -> bool:
    """row_group meets col_group = W(psi') trivially, and so do W(psi⊥) and
    W(psi'⊥). row_group = N(psi) decides a useful sub-system, W(psi) a
    useful system. The complement subgroups are closed only when needed."""
    if not _meets_trivially(system, row_group, col_group):
        return False
    return _meets_trivially(
        system,
        subgroup_generated(system, orthogonal_complement(system, psi).simples),
        subgroup_generated(system, orthogonal_complement(system, psi_prime).simples),
    )


def distinguished_reps(
    system: RootSystem, psi: Subsystem, group: GeneratedGroup
) -> tuple[GroupElement, ...]:
    """D_psi: elements keeping every simple root of psi positive.

    One per coset of the reflection subgroup of psi, each of minimal length.
    """
    j_idx = _root_indices(system, group, psi.simples)
    pc = system.positive_count
    return tuple(w for w in group if all(w.perm[j] < pc for j in j_idx))


def cartan_matrix(system: RootSystem, simples) -> tuple[tuple[int, ...], ...]:
    """Integer matrix 2(a_i, a_j)/(a_i, a_i) of an ordered root list."""
    return rootsys._cartan_rows(
        [[inner_product(system, a, b) for b in simples] for a in simples]
    )


def _connected_components(system: RootSystem, simples) -> tuple[tuple[Root, ...], ...]:
    n = len(simples)
    adj = [
        [
            i != j and inner_product(system, simples[i], simples[j]) != 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if adj[i][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(tuple(simples[i] for i in sorted(comp)))
    return tuple(components)


def _reference_cartans(rank: int):
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


def _cartan_isomorphic(a, b) -> bool:
    k = len(a)
    prof_a = [tuple(sorted(row)) for row in a]
    prof_b = [tuple(sorted(row)) for row in b]
    if sorted(prof_a) != sorted(prof_b):
        return False
    assign = [0] * k
    used = [False] * k

    def extend(i: int) -> bool:
        if i == k:
            return True
        for cand in range(k):
            if used[cand] or prof_a[cand] != prof_b[i]:
                continue
            ok = True
            for j in range(i):
                if a[cand][assign[j]] != b[i][j] or a[assign[j]][cand] != b[j][i]:
                    ok = False
                    break
            if not ok:
                continue
            assign[i] = cand
            used[cand] = True
            if extend(i + 1):
                return True
            used[cand] = False
        return False

    return extend(0)


def _classify_component(system: RootSystem, comp) -> str:
    c = cartan_matrix(system, comp)
    for label, ref in _reference_cartans(len(comp)):
        if _cartan_isomorphic(c, ref):
            return label
    raise ValueError(f"unrecognized component diagram of rank {len(comp)}")


def restricted_reflections(
    system: RootSystem, psi: Subsystem, elements
) -> tuple[GroupElement, ...]:
    """Elements acting as reflections on the span of psi.

    Qualifies when the fixed space meets the span in codimension one and the
    square fixes the span pointwise. Ambient root reflections inside psi
    always qualify; elements rotating the full space may still restrict to
    reflections of the span, which is how extra stabilizer structure beyond
    the reflection subgroup of psi shows up.
    """
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


def subsystem_to_json(system: RootSystem, psi: Subsystem) -> dict:
    """Report document: {label, simples, size}."""
    return {
        "label": psi.label,
        "simples": [rootsys.format_root(system, r) for r in psi.simples],
        "size": psi.size,
    }

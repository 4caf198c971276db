"""Subsystems of a root system: closures, classification, stabilizers in
a generated group, coset transversals and the usefulness tests of a pair.

A subsystem carries its simple system J as given, and everything about it
is read from J: its roots are the orbit of J under the reflections in J,
and each connected component of its diagram is named by the diagram's
shape (bond multiplicities, short roots, a branch node). Labels are
scale-free (a long A1 and a short A1 both classify as A1).
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from operator import itemgetter

from . import rootsys
from .exactlin import QQ, from_dense, row_reduce
from .rootsys import Root, RootSystem, inner_product, reflection
from .weyl import (
    DEFAULT_GROUP_LIMIT,
    GeneratedGroup,
    GroupElement,
    coset_walk,
    fold_preorder,
    gather,
    identity,
)


class Subsystem:
    """A reflection-closed root subset with its simple system."""

    __slots__ = ("ambient_label", "roots", "simples", "components", "component_labels")

    def __init__(
        self,
        ambient_label: str,
        roots: frozenset,
        simples: tuple[Root, ...],
        components: tuple[tuple[Root, ...], ...],
        component_labels: tuple[str, ...],
    ):
        self.ambient_label = ambient_label
        self.roots = roots
        self.simples = simples
        self.components = components
        self.component_labels = component_labels

    def _key(self):
        return self.ambient_label, self.roots, self.simples, self.components, self.component_labels

    def __eq__(self, other):
        if type(other) is not Subsystem:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


def closure_from_simples(system: RootSystem, simples) -> Subsystem:
    """Smallest reflection-closed subset containing J, classified from J.

    J must consist of linearly independent positive roots and must be the
    simple system of the subsystem it generates; the last condition is what
    makes the distinguished-coset characterization and the Dynkin
    classification meaningful. Independent positive roots are that simple
    system exactly when they are pairwise obtuse (Humphreys 1990, 1.3).
    """
    simples = tuple(tuple(r) for r in simples)
    for r in simples:
        if r not in system.index or not system.is_positive(r):
            raise ValueError(f"{r} is not a positive root of {system.label}")
    if simples:
        rank = row_reduce(QQ, [from_dense(QQ, r) for r in simples]).rank
        if rank != len(simples):
            raise ValueError("J is linearly dependent")
    if any(
        inner_product(system, a, b) > 0 for a, b in itertools.combinations(simples, 2)
    ):
        raise ValueError("J is not the simple system of the subsystem it generates")
    # the reflections in J generate W(J), and Phi_J is the orbit of J under it
    roots = rootsys._orbit(simples, [reflection(system.doubled_gram, a) for a in simples])
    return _classified(system, roots, simples)


def _indecomposables(system: RootSystem, rset) -> tuple[Root, ...]:
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
    """The largest subsystem orthogonal to psi.

    The roots orthogonal to a subspace form a subsystem, so its simple
    system is read off directly as its indecomposable positive roots.
    """
    ortho = [
        r
        for r in system.roots
        if all(inner_product(system, r, s) == 0 for s in psi.simples)
    ]
    return _classified(system, ortho, _indecomposables(system, ortho))


def stabilizer(
    system: RootSystem, psi: Subsystem, group: GeneratedGroup
) -> tuple[GroupElement, ...]:
    """The stabilizer of psi's root set in a generated group. The inverses
    of its elements are folded by right steps p o s in its preorder, and
    kept in that order: they are the same set."""
    folded = fold_preorder(group.preorder, map(gather, group.gens), identity(system).perm)
    r_idx = [system.root_index(r) for r in psi.roots]
    own = frozenset(r_idx)
    # a nonempty psi has at least two roots, so the getter returns a tuple
    image = itemgetter(*r_idx) if r_idx else lambda p: ()
    return tuple(GroupElement(p, system.label) for _, p in folded if frozenset(image(p)) == own)


def normalizer(system: RootSystem, psi: Subsystem, group: GeneratedGroup) -> tuple:
    """N(psi), the stabilizer of psi's root set in a generation of W. No
    stage calls it; it is kept, unexported, for the benchmark's tracer."""
    if group.system_label != system.label:
        raise ValueError("group belongs to a different root system")
    return stabilizer(system, psi, group)


def complements_meet_trivially(
    system: RootSystem, psi: Subsystem, psi_prime: Subsystem
) -> bool:
    """W(psi⊥) meets W(psi'⊥) trivially: the complement half of usefulness.

    The pointwise stabilizer of a subspace is generated by the reflections
    it contains (Steinberg 1964; Humphreys 1990, 1.12). So W(psi⊥) is the
    fixer of span(J), the meet is the fixer of span(J ∪ J'), and it is
    trivial exactly when no root is orthogonal to all of J ∪ J'.
    """
    js = psi.simples + psi_prime.simples
    return not any(
        all(inner_product(system, r, j) == 0 for j in js)
        for r in system.roots[: system.positive_count]
    )


def distinguished_reps(
    system: RootSystem, psi: Subsystem, limit: int = DEFAULT_GROUP_LIMIT
) -> Iterator[tuple]:
    """D_psi: the elements keeping every simple root of psi positive, as
    the `weyl.coset_walk` that reaches them in W's order, identity first:
    each with its lex-least reduced word and its parent's position, so
    `weyl.elements_of` the walk folds the elements themselves.

    One per coset of the reflection subgroup of psi, each of minimal length
    (Dyer 1990). If the reflection in a simple root a is a left descent of
    such d, it sends d(J) negative only where d sends a root of J to a; but
    d^-1(a) is negative. So the walk from e that keeps J positive reaches
    all of D_psi. Its points lead with the images of the simple roots, which
    name the element. The walk is lazy, so a reader that stops early walks
    no further.
    """
    rank, pc = system.rank, system.positive_count
    seed = tuple(system.index[a] for a in system.simple_roots())
    seed += tuple(system.root_index(r) for r in psi.simples)
    gens = system.simple_reflection_perms
    return coset_walk(gens, seed, keep=lambda x: max(x[rank:], default=-1) < pc, limit=limit)


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


def _classify_component(system: RootSystem, comp) -> str:
    # The shape of a connected diagram names its type (Humphreys 1990, 2.4).
    # A triple bond is G2. With a double bond, one short simple root is B_n,
    # two short of four is F4, and otherwise the type is C_n. E types cannot
    # occur inside A-D, G2 or F4, so a simply-laced diagram is D_n when some
    # node has three neighbours and A_n otherwise. So the diagram of C2 is
    # named B2, and that of D3 is named A3.
    n = len(comp)
    c = cartan_matrix(system, comp)
    bonds = {c[i][j] * c[j][i] for i in range(n) for j in range(i)}
    if 3 in bonds:
        return "G2"
    if 2 in bonds:
        norms = [inner_product(system, r, r) for r in comp]
        short = norms.count(min(norms))
        if short == 1:
            return f"B{n}"
        return "F4" if (short, n) == (2, 4) else f"C{n}"
    branched = any(sum(1 for x in row if x) > 3 for row in c)
    return f"D{n}" if branched else f"A{n}"


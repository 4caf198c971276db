"""Predicates on subsystem pairs and randomized structural checks.

Usefulness is read from the small group W(psi') and from the roots (see
`subsystem.stabilizer` and `subsystem.complements_meet_trivially`), goodness
from the support of the base polytabloid. The submodule probe spins seeded
random vectors under the simple reflections and decides the containment
dichotomy from e_{J,J'} alone: e lies in U, or U is orthogonal to e.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactlin import SparseVector, contains, vector
from .rootsys import RootSystem
from .specht import (
    SpechtModuleData,
    TabloidSpace,
    cyclic_submodule,
    enumerate_tabloids,
)
from .subsystem import Subsystem, complements_meet_trivially, stabilizer
from .weyl import (
    GeneratedGroup,
    GroupElement,
    sign,
    subgroup_generated,
    word_order,
)

DEFAULT_PROBE_SEED = 1729


def _require_pair(system: RootSystem, psi: Subsystem, psi_prime: Subsystem, group=None):
    if psi.ambient_label != system.label or psi_prime.ambient_label != system.label:
        raise ValueError("subsystems must belong to the ambient system")
    if group is not None and group.system_label != system.label:
        raise ValueError("group belongs to a different root system")
    if psi.roots & psi_prime.roots:
        raise ValueError("psi_prime must be contained in the ambient system minus psi")


def is_useful_system(system: RootSystem, psi: Subsystem, psi_prime: Subsystem) -> bool:
    """W(J) meets W(J') trivially, and likewise for the two complements."""
    _require_pair(system, psi, psi_prime)
    w_j = {w.perm for w in subgroup_generated(system, psi.simples)}
    meet = w_j.intersection(w.perm for w in subgroup_generated(system, psi_prime.simples))
    return len(meet) == 1 and complements_meet_trivially(system, psi, psi_prime)


def is_useful_subsystem(
    system: RootSystem,
    psi: Subsystem,
    psi_prime: Subsystem,
    group: GeneratedGroup | None = None,
) -> bool:
    """N(psi) meets W(psi') trivially, and likewise for the two complements.
    The meet is the stabilizer of psi in W(psi'), so only W(psi') is closed;
    `group` is only checked to belong to the system."""
    _require_pair(system, psi, psi_prime, group)
    col_group = subgroup_generated(system, psi_prime.simples)
    return len(stabilizer(system, psi, col_group)) == 1 and complements_meet_trivially(
        system, psi, psi_prime
    )


def _first_obstruction(system: RootSystem, elements) -> GroupElement | None:
    # the elements that square to e and have sign -1, which rules out e;
    # the first of them in the (length, word) order of W, read without W
    found = [
        w
        for w in elements
        if all(w.perm[j] == i for i, j in enumerate(w.perm))
        and sign(system, w) == -1
    ]
    return min(found, key=word_order(system)) if found else None


def obstruction_from_space(space: TabloidSpace) -> GroupElement | None:
    """The first order-2 negative-sign element of N(psi) meet W(psi') in
    the group order, if any."""
    return _first_obstruction(space.system, space.col_stabilizer)


def vanishing_obstruction(
    system: RootSystem,
    psi: Subsystem,
    psi_prime: Subsystem,
    group: GeneratedGroup | None = None,
) -> GroupElement | None:
    """The first order-2 negative-sign element of N(psi) meet W(psi') in
    group order, if any; the meet is the stabilizer of psi in W(psi').
    W is never generated; `group` is only checked to belong to the system.

    Such an element pairs off the terms of the polytabloid with opposite
    signs, forcing it to vanish.
    """
    _require_pair(system, psi, psi_prime, group)
    meet = stabilizer(system, psi, subgroup_generated(system, psi_prime.simples))
    return _first_obstruction(system, meet)


@dataclass(frozen=True)
class GoodSubsystemResult:
    """Outcome of the goodness scan, with the failing cosets as witnesses."""

    is_good: bool
    witnesses: tuple[GroupElement, ...]
    reason: str | None

    def __bool__(self) -> bool:
        return self.is_good


def good_from_space(space: TabloidSpace) -> GoodSubsystemResult:
    """Goodness of the space's pair, read from its base polytabloid.

    The support of the integer polytabloid decides, never its image mod p.
    """
    if not space.useful:
        return GoodSubsystemResult(False, (), "not a useful sub-system")
    base = space.base_polytabloid
    witnesses = tuple(
        t.rep
        for i, t in enumerate(space.tabloids)
        if not (t.key & space.psi_prime.roots) and i not in base.entries
    )
    if witnesses:
        return GoodSubsystemResult(
            False,
            witnesses,
            f"{len(witnesses)} disjoint coset(s) missing from the polytabloid",
        )
    return GoodSubsystemResult(True, (), None)


def is_good_subsystem(
    system: RootSystem,
    psi: Subsystem,
    psi_prime: Subsystem,
    group: GeneratedGroup | None = None,
) -> GoodSubsystemResult:
    """Every representative whose image of psi misses psi' must appear with
    nonzero coefficient in the base polytabloid. W is never generated;
    `group` is only checked to belong to the system."""
    _require_pair(system, psi, psi_prime, group)
    space = enumerate_tabloids(system, psi, group, psi_prime)
    return good_from_space(space)


@dataclass(frozen=True)
class ProbeReport:
    """Seeded random-submodule probe outcome; `violations` lists bad trials."""

    trials: int
    seed: int
    characteristic: int
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def probe_vector(field, dim: int, seed: int, trial: int) -> SparseVector:
    """The seeded random vector of one probe trial, entries in -3..3."""
    rng = random.Random(seed * 1_000_003 + trial)
    return vector(field, dim, ((i, field.from_int(rng.randint(-3, 3))) for i in range(dim)))


def submodule_theorem_probe(
    module: SpechtModuleData, trials: int = 50, seed: int = DEFAULT_PROBE_SEED
) -> ProbeReport:
    """For each seeded random cyclic submodule U of the tabloid module,
    check that the built module is inside U or U is inside its form
    complement.

    The dichotomy is James's submodule theorem. Its proof needs kappa of
    every tabloid to be 0 or +-e_{J,J'}, which the good hypothesis
    provides, so only on a good pair does a violation indicate an
    implementation bug. On a useful pair that is not good the theorem is
    not claimed and a violation may be genuine: sparse probe vectors find
    some on the F4 and A5 reference pairs.

    U is spun from its seeded vector under the simple reflections by
    `cyclic_submodule`, which needs at most rank * dim images of it rather
    than one per group element. U is W-stable and the delta form is
    W-invariant, so S lies in U exactly when e_{J,J'} does, and U lies in
    the complement of S exactly when every row of U pairs to zero with e."""
    if trials < 1:
        raise ValueError(f"probe needs at least one trial, got {trials}")
    space, field = module.space, module.field
    p = field.characteristic
    e = module.e_vec.entries
    violations = []
    for t in range(trials):
        cyclic = cyclic_submodule(space, field, probe_vector(field, len(space), seed, t))
        if contains(cyclic, module.e_vec):
            continue
        pairings = (sum(c * e[i] for i, c in r.entries.items() if i in e) for r in cyclic.rows)
        if any(x % p if p else x for x in pairings):
            violations.append(t)
    return ProbeReport(
        trials=trials,
        seed=seed,
        characteristic=p,
        violations=tuple(violations),
    )

"""Predicates on subsystem pairs and randomized structural checks.

The useful/good predicates are decided by brute-force subgroup intersection
and coefficient scans, which is exact and cheap at desk scale. The
submodule probe draws seeded random vectors, spins each one under the
simple reflections into its cyclic submodule and checks the containment
dichotomy against the built module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactlin import QQ, SparseVector, contains, form_complement, vector
from .rootsys import RootSystem
from .specht import (
    SpechtModuleData,
    TabloidSpace,
    cyclic_submodule,
    enumerate_tabloids,
    polytabloid,
)
from .subsystem import Subsystem, is_useful_pair
from .weyl import (
    GeneratedGroup,
    GroupElement,
    generate_group,
    sign,
    subgroup_generated,
)

DEFAULT_PROBE_SEED = 1729


def _require_disjoint(system: RootSystem, psi: Subsystem, psi_prime: Subsystem) -> None:
    if psi.ambient_label != system.label or psi_prime.ambient_label != system.label:
        raise ValueError("subsystems must belong to the ambient system")
    if psi.roots & psi_prime.roots:
        raise ValueError("psi_prime must be contained in the ambient system minus psi")


def is_useful_system(system: RootSystem, psi: Subsystem, psi_prime: Subsystem) -> bool:
    """W(J) meets W(J') trivially, and likewise for the two complements."""
    _require_disjoint(system, psi, psi_prime)
    w_j = subgroup_generated(system, psi.simples)
    w_jp = subgroup_generated(system, psi_prime.simples)
    return is_useful_pair(system, psi, psi_prime, w_j, w_jp)


def is_useful_subsystem(
    system: RootSystem,
    psi: Subsystem,
    psi_prime: Subsystem,
    group: GeneratedGroup | None = None,
) -> bool:
    """N(psi) meets W(psi') trivially, and likewise for the two complements."""
    _require_disjoint(system, psi, psi_prime)
    if group is None:
        group = generate_group(system)
    return enumerate_tabloids(system, psi, group, psi_prime).useful


def obstruction_from_space(space: TabloidSpace) -> GroupElement | None:
    """The first order-2 negative-sign element of N(psi) meet W(psi') in
    the space's group order, if any."""
    system = space.system
    w_jp = {w.perm for w in space.col_group}
    e = space.group.identity
    for w in space.n_psi:
        if w == e or w.perm not in w_jp:
            continue
        p = w.perm
        if any(p[j] != i for i, j in enumerate(p)):  # w o w is not e
            continue
        if sign(system, w) == -1:
            return w
    return None


def vanishing_obstruction(
    system: RootSystem,
    psi: Subsystem,
    psi_prime: Subsystem,
    group: GeneratedGroup | None = None,
) -> GroupElement | None:
    """An order-2 negative-sign element of N(psi) meet W(psi'), if any.

    Such an element pairs off the terms of the polytabloid with opposite
    signs, forcing it to vanish.
    """
    if group is None:
        group = generate_group(system)
    return obstruction_from_space(enumerate_tabloids(system, psi, group, psi_prime))


@dataclass(frozen=True)
class GoodSubsystemResult:
    """Outcome of the goodness scan, with the failing cosets as witnesses."""

    is_good: bool
    witnesses: tuple[GroupElement, ...]
    reason: str | None

    def __bool__(self) -> bool:
        return self.is_good


def good_from_space(space: TabloidSpace, base: SparseVector) -> GoodSubsystemResult:
    """Goodness of the space's pair; `base` is its base polytabloid over Q.

    The support of the integer polytabloid decides, never its image mod p.
    """
    if not space.useful:
        return GoodSubsystemResult(False, (), "not a useful sub-system")
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
    nonzero coefficient in the base polytabloid."""
    _require_disjoint(system, psi, psi_prime)
    if group is None:
        group = generate_group(system)
    space = enumerate_tabloids(system, psi, group, psi_prime)
    return good_from_space(space, polytabloid(space, QQ, group.identity))


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
    than one per group element."""
    if trials < 1:
        raise ValueError(f"probe needs at least one trial, got {trials}")
    space = module.space
    field = module.field
    dim = len(space)
    perp = form_complement(module.basis)
    violations = []
    for t in range(trials):
        cyclic = cyclic_submodule(space, field, probe_vector(field, dim, seed, t))
        s_in_u = all(contains(cyclic, r) for r in module.basis.rows)
        u_in_perp = all(contains(perp, r) for r in cyclic.rows)
        if not (s_in_u or u_in_perp):
            violations.append(t)
    return ProbeReport(
        trials=trials,
        seed=seed,
        characteristic=field.characteristic,
        violations=tuple(violations),
    )

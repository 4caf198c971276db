"""Predicates on subsystem pairs and randomized structural checks.

The useful/good predicates are decided by brute-force subgroup intersection
and coefficient scans, which is exact and cheap at desk scale. The
submodule probe draws seeded random vectors, closes them into cyclic
submodules and checks the containment dichotomy against the built module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactlin import QQ, SparseVector, contains, form_complement, row_reduce, vector
from .rootsys import RootSystem
from .specht import (
    SpechtModuleData,
    TabloidSpace,
    act_vector,
    enumerate_tabloids,
    polytabloid,
)
from .subsystem import Subsystem, is_useful_pair, normalizer
from .weyl import (
    GeneratedGroup,
    GroupElement,
    compose,
    generate_group,
    sign,
    subgroup_generated,
)

DEFAULT_PROBE_SEED = 1729


def _require_disjoint(psi: Subsystem, psi_prime: Subsystem) -> None:
    if psi.roots & psi_prime.roots:
        raise ValueError("psi_prime must be contained in the ambient system minus psi")


def is_useful_system(system: RootSystem, psi: Subsystem, psi_prime: Subsystem) -> bool:
    """W(J) meets W(J') trivially, and likewise for the two complements."""
    _require_disjoint(psi, psi_prime)
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
    _require_disjoint(psi, psi_prime)
    if group is None:
        group = generate_group(system)
    n_psi = normalizer(system, psi, group).n_psi
    w_jp = subgroup_generated(system, psi_prime.simples)
    return is_useful_pair(system, psi, psi_prime, n_psi, w_jp)


def obstruction_from_space(space: TabloidSpace) -> GroupElement | None:
    """The first order-2 negative-sign element of N(psi) meet W(psi') in
    the space's group order, if any."""
    system = space.system
    w_jp = {w.perm for w in space.col_group}
    e = space.group.identity
    for w in space.n_psi:
        if w == e or w.perm not in w_jp:
            continue
        if compose(w, w) != e:
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
    _require_disjoint(psi, psi_prime)
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


def submodule_theorem_probe(
    module: SpechtModuleData, trials: int = 50, seed: int = DEFAULT_PROBE_SEED
) -> ProbeReport:
    """For each seeded random cyclic submodule U of the tabloid module,
    check that the built module is inside U or U is inside its form
    complement. Any violation indicates an implementation bug."""
    if trials < 1:
        raise ValueError(f"probe needs at least one trial, got {trials}")
    space = module.space
    field = module.field
    dim = len(space)
    perp = form_complement(module.basis)
    violations = []
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        u = vector(
            field,
            dim,
            ((i, field.from_int(rng.randint(-3, 3))) for i in range(dim)),
        )
        orbit = [act_vector(space, field, w, u) for w in space.group]
        cyclic = row_reduce(field, orbit, dim=dim)
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

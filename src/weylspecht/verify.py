"""Predicates on subsystem pairs and randomized structural checks.

Usefulness is read from the small group W(psi') and from the roots (see
`subsystem.stabilizer` and `subsystem.complements_meet_trivially`), goodness
from the support of the base polytabloid. The submodule probe spins seeded
random vectors under the simple reflections and decides the containment
dichotomy from e_{J,J'} alone: e lies in U, or U is orthogonal to e. The
column operator kappa lies in F[W], so kappa U lies in the W-stable U; the
spin stops as soon as the kappa images of the vectors spanning U put e in
U, which proves S inside U. A spin that ends without that exit decides the
dichotomy from U's echelon rows: e in their span, or every row orthogonal
to e.
"""

from __future__ import annotations

import random

from .exactlin import SparseVector, echelon_insert, in_echelon_span, vector
from .rootsys import RootSystem
from .specht import (
    SpechtModuleData,
    TabloidSpace,
    apply_kappa,
    enumerate_tabloids,
    spin,
)
from .subsystem import Subsystem, complements_meet_trivially, stabilizer
from .weyl import GroupElement, sign, subgroup_generated, word_order

DEFAULT_PROBE_SEED = 1729


def _require_pair(system: RootSystem, psi: Subsystem, psi_prime: Subsystem):
    if psi.ambient_label != system.label or psi_prime.ambient_label != system.label:
        raise ValueError("subsystems must belong to the ambient system")
    if psi.roots & psi_prime.roots:
        raise ValueError("psi_prime must be contained in the ambient system minus psi")


def is_useful_system(system: RootSystem, psi: Subsystem, psi_prime: Subsystem) -> bool:
    """W(J) meets W(J') trivially, and likewise for the two complements."""
    _require_pair(system, psi, psi_prime)
    w_j = {w.perm for w in subgroup_generated(system, psi.simples).elements}
    w_jp = subgroup_generated(system, psi_prime.simples).elements
    meet = w_j.intersection(w.perm for w in w_jp)
    return len(meet) == 1 and complements_meet_trivially(system, psi, psi_prime)


def _meet(system: RootSystem, psi: Subsystem, psi_prime: Subsystem) -> tuple[GroupElement, ...]:
    # N(psi) meet W(psi') of a checked pair: the stabilizer of psi in
    # W(psi'), in the preorder of W(psi'), so only W(psi') is closed
    _require_pair(system, psi, psi_prime)
    return stabilizer(system, psi, subgroup_generated(system, psi_prime.simples))


def is_useful_subsystem(system: RootSystem, psi: Subsystem, psi_prime: Subsystem) -> bool:
    """N(psi) meets W(psi') trivially (`_meet`), and likewise the complements."""
    return len(_meet(system, psi, psi_prime)) == 1 and complements_meet_trivially(
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
    system: RootSystem, psi: Subsystem, psi_prime: Subsystem
) -> GroupElement | None:
    """The first order-2 negative-sign element of N(psi) meet W(psi')
    (`_meet`) in group order, if any. W is never generated.

    Such an element pairs off the terms of the polytabloid with opposite
    signs, forcing it to vanish.
    """
    return _first_obstruction(system, _meet(system, psi, psi_prime))


class GoodSubsystemResult:
    """Outcome of the goodness scan, with the failing cosets as witnesses."""

    __slots__ = ("is_good", "witnesses", "reason")

    def __init__(self, is_good: bool, witnesses: tuple[GroupElement, ...], reason: str | None):
        self.is_good = is_good
        self.witnesses = witnesses
        self.reason = reason

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
    system: RootSystem, psi: Subsystem, psi_prime: Subsystem
) -> GoodSubsystemResult:
    """Every representative whose image of psi misses psi' must appear with
    nonzero coefficient in the base polytabloid. W is never generated."""
    _require_pair(system, psi, psi_prime)
    space = enumerate_tabloids(system, psi, psi_prime=psi_prime)
    return good_from_space(space)


class ProbeReport:
    """Seeded random-submodule probe outcome; `violations` lists bad trials."""

    __slots__ = ("trials", "seed", "characteristic", "violations")

    def __init__(self, trials: int, seed: int, characteristic: int, violations: tuple[int, ...]):
        self.trials = trials
        self.seed = seed
        self.characteristic = characteristic
        self.violations = violations

    def __eq__(self, other):
        if type(other) is not ProbeReport:
            return NotImplemented
        return (self.trials, self.seed, self.characteristic, self.violations) == (
            other.trials, other.seed, other.characteristic, other.violations
        )

    @property
    def ok(self) -> bool:
        return not self.violations


def probe_vector(field, dim: int, seed: int, trial: int) -> SparseVector:
    """The seeded random vector of one probe trial, entries in -3..3."""
    rng = random.Random(seed * 1_000_003 + trial)
    return vector(field, dim, ((i, field.from_int(rng.randint(-3, 3))) for i in range(dim)))


def _breaks_dichotomy(module: SpechtModuleData, v: SparseVector) -> bool:
    # whether U, spun from v, neither holds e_{J,J'} nor is orthogonal to it
    space, field, e_vec = module.space, module.field, module.e_vec
    rows: dict = {}
    images: dict = {}
    for u in spin(space, field, v, rows):
        kappa_u = apply_kappa(space, field, u)
        if echelon_insert(field, images, kappa_u) and in_echelon_span(field, images, e_vec):
            return False
    if in_echelon_span(field, rows, e_vec):
        return False
    p, e = field.characteristic, e_vec.entries
    pairings = (sum(c * e[i] for i, c in r.items() if i in e) for r in rows.values())
    return any(x % p if p else x for x in pairings)


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
    `specht.spin`, which needs at most rank * dim images of it rather than
    one per group element. U is W-stable and the delta form is W-invariant,
    so S lies in U exactly when e_{J,J'} does, and U lies in the complement
    of S exactly when every vector spanning U pairs to zero with e.

    The spin stops as soon as e is known to lie in U. Kappa is an element
    of F[W], so kappa U lies in U: each vector entering U's echelon also
    sends its kappa image into a second echelon, and once e lies in the span
    of those images, S lies in U and the trial passes. The images lie in
    kappa M, which is small (dimension 1 on a certified pair), so this
    exit comes after a few images. A spin that ends without it decides as
    above from U's working echelon rows; the canonical basis of U is never
    built. On a zero module, where e = 0, every trial passes unspun."""
    if trials < 1:
        raise ValueError(f"probe needs at least one trial, got {trials}")
    field = module.field
    dim = len(module.space)
    # S = 0 lies in every U, so a zero module spins nothing
    violations = () if module.e_vec.is_zero() else tuple(
        t for t in range(trials) if _breaks_dichotomy(module, probe_vector(field, dim, seed, t))
    )
    return ProbeReport(
        trials=trials,
        seed=seed,
        characteristic=field.characteristic,
        violations=violations,
    )

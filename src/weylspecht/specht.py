"""Tabloids, polytabloids and the submodules they span inside the tabloid
module.

A tabloid is a left coset of the setwise stabilizer N(psi), keyed by the
image root set d(psi) itself; the stabilizer is exactly the subgroup fixing
that set, so the key is canonical. One sweep of `subsystem.normalizer` over
W keys every element by this image and returns N(psi) with the
representatives E_psi, the first element of each coset in BFS order. The
module M^psi is the free module on the tabloids. W acts on tabloid indices
through one permutation table per simple reflection, computed once from
the keys; an element acts by folding these tables along its recorded
reduced word, and a cyclic submodule is spun by applying them one at a
time. The kappa operator is the signed sum over the reflection group of
the column system, and the polytabloid e_{wJ,wJ'} is the translate
w e_{J,J'} of kappa applied to the base tabloid. The module S is the
submodule spun from e_{J,J'}.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .exactlin import (
    SparseVector,
    SubspaceBasis,
    dot,
    echelon_basis,
    echelon_insert,
    field_name,
    form_complement,
    row_reduce,
    solve_coordinates,
)
from .rootsys import Root, RootSystem, format_root
from .subsystem import Subsystem, distinguished_reps, is_useful_pair, normalizer
from .weyl import (
    GeneratedGroup,
    GroupElement,
    apply_to_root,
    generate_group,
    sign,
    subgroup_generated,
    word_to_element,
)


@dataclass(frozen=True)
class Tabloid:
    """One coset d N(psi), keyed by the root set d(psi)."""

    key: frozenset
    rep: GroupElement
    rep_word: tuple[int, ...]
    rows: tuple[Root, ...]
    cols: tuple[Root, ...]


class TabloidSpace:
    """Indexed tabloid family for (system, psi) with optional column system.

    The record of the pair: N(psi), W(psi') with its signs and the
    usefulness of the pair are computed here once and read by every later
    stage. Tabloid order is the order of the representatives E_psi, the
    first element of each coset of N(psi) in the BFS order of the group;
    the family therefore prints identically from run to run. The action of
    W is the tabloid-index permutation of each simple reflection, read off
    the keys once here and folded along the recorded word of an element, or
    applied one reflection at a time by `cyclic_submodule`; nothing is
    stored per element.
    """

    def __init__(
        self,
        system: RootSystem,
        psi: Subsystem,
        psi_prime: Subsystem | None,
        group: GeneratedGroup,
        n_psi: tuple[GroupElement, ...],
        tabloids: tuple[Tabloid, ...],
        col_group: tuple[GroupElement, ...],
        col_signs: tuple[int, ...],
    ):
        self.system = system
        self.psi = psi
        self.psi_prime = psi_prime
        self.group = group
        self.n_psi = n_psi
        self.tabloids = tabloids
        self.index = {t.key: i for i, t in enumerate(tabloids)}
        self.col_group = col_group
        self.col_signs = col_signs

        def table(s: GroupElement) -> tuple[int, ...]:
            return tuple(
                self.index[frozenset(apply_to_root(system, s, r) for r in t.key)]
                for t in tabloids
            )

        # BFS puts tau_i at position i of the group, with recorded word (i,)
        self._tables = tuple(table(group[i]) for i in range(1, system.rank + 1))
        # step i sends a permutation p to p o (table of tau_i)
        self._steps = tuple(itemgetter(*t) for t in self._tables)

    def __len__(self) -> int:
        return len(self.tabloids)

    def __iter__(self):
        return iter(self.tabloids)

    def __getitem__(self, i: int) -> Tabloid:
        return self.tabloids[i]

    @cached_property
    def useful(self) -> bool:
        """Whether (psi, psi') is a useful sub-system; False when they meet."""
        if self.psi_prime is None:
            raise ValueError("tabloid space was built without a column system")
        if self.psi.roots & self.psi_prime.roots:
            return False
        return is_useful_pair(
            self.system, self.psi, self.psi_prime, self.n_psi, self.col_group
        )

    def _require_member(self, w: GroupElement) -> None:
        if w.system_label != self.system.label:
            raise ValueError("element belongs to a different root system")

    def index_action(self, w: GroupElement) -> tuple[int, ...]:
        """The permutation of tabloid indices induced by w: entry i is the
        index of w applied to tabloid i."""
        self._require_member(w)
        perm = tuple(range(len(self.tabloids)))
        word = self.group.word_of(w)
        if len(perm) == 1:  # nothing moves; a one-index getter returns a scalar
            return perm
        # w = tau_a tau_b ... acts as table_a o table_b o ...
        for i in word:
            perm = self._steps[i - 1](perm)
        return perm


def enumerate_tabloids(
    system: RootSystem,
    psi: Subsystem,
    group: GeneratedGroup,
    psi_prime: Subsystem | None = None,
) -> TabloidSpace:
    """One tabloid per coset of N(psi); count equals the index of N(psi)."""
    labels = {psi.ambient_label, group.system_label}
    if psi_prime is not None:
        labels.add(psi_prime.ambient_label)
    if labels != {system.label}:
        raise ValueError("subsystems and group must share the ambient system")
    norm = normalizer(system, psi, group)
    tabloids = []
    for d in norm.reps:
        key = frozenset(apply_to_root(system, d, r) for r in psi.roots)
        rows = tuple(apply_to_root(system, d, j) for j in psi.simples)
        cols = (
            tuple(apply_to_root(system, d, j) for j in psi_prime.simples)
            if psi_prime is not None
            else ()
        )
        tabloids.append(
            Tabloid(key=key, rep=d, rep_word=group.word_of(d), rows=rows, cols=cols)
        )
    if psi_prime is not None:
        col_group = subgroup_generated(system, psi_prime.simples)
        col_signs = tuple(sign(system, s) for s in col_group)
    else:
        col_group = (group.identity,)
        col_signs = (1,)
    return TabloidSpace(
        system=system,
        psi=psi,
        psi_prime=psi_prime,
        group=group,
        n_psi=norm.n_psi,
        tabloids=tuple(tabloids),
        col_group=col_group,
        col_signs=col_signs,
    )


def act_tabloid(space: TabloidSpace, w: GroupElement, t: Tabloid) -> Tabloid:
    """The tabloid with key w(key); a well-defined action on the family."""
    i = space.index[t.key]
    return space.tabloids[space.index_action(w)[i]]


def _permuted(m: tuple[int, ...], v: SparseVector) -> SparseVector:
    return SparseVector(v.dim, {m[i]: c for i, c in v.entries.items()})


def act_vector(space: TabloidSpace, field, w: GroupElement, v: SparseVector) -> SparseVector:
    """Permute the coordinates of a module vector by the action of w."""
    if v.dim != len(space):
        raise ValueError("vector does not belong to this tabloid space")
    return _permuted(space.index_action(w), v)


def cyclic_submodule(space: TabloidSpace, field, v: SparseVector) -> SubspaceBasis:
    """Canonical basis of the W-submodule generated by v, found by spinning.

    Each vector that enlarges the echelon span is pushed through every
    simple reflection, and the images that enlarge it further are queued in
    turn. A span closed under the simple reflections is closed under W,
    since they generate W and are involutions; so this takes at most
    rank * dim images, where the orbit takes |W|.
    """
    dim = len(space)
    if v.dim != dim:
        raise ValueError("vector does not belong to this tabloid space")
    by_pivot: dict = {}
    queue = deque([v] if echelon_insert(field, by_pivot, v) else ())
    while queue and len(by_pivot) < dim:
        u = queue.popleft()
        for table in space._tables:
            img = _permuted(table, u)
            if echelon_insert(field, by_pivot, img):
                queue.append(img)
    return echelon_basis(field, dim, by_pivot)


def apply_kappa(space: TabloidSpace, field, v: SparseVector) -> SparseVector:
    """The signed sum over the column reflection group, applied to v."""
    if v.dim != len(space):
        raise ValueError("vector does not belong to this tabloid space")
    acc: dict = {}
    for sigma, sgn in zip(space.col_group, space.col_signs):
        m = space.index_action(sigma)
        for i, c in v.entries.items():
            j = m[i]
            cur = field.add(acc.get(j, field.zero), c if sgn > 0 else field.neg(c))
            if cur == field.zero:
                acc.pop(j, None)
            else:
                acc[j] = cur
    return SparseVector(v.dim, acc)


def polytabloid(space: TabloidSpace, field, w: GroupElement) -> SparseVector:
    """e_{wJ,wJ'} = w e_{J,J'}, where e_{J,J'} is kappa of the base tabloid."""
    if space.psi_prime is None:
        raise ValueError("tabloid space was built without a column system")
    base = SparseVector(len(space), {space.index[frozenset(space.psi.roots)]: field.one})
    return act_vector(space, field, w, apply_kappa(space, field, base))


@dataclass
class SpechtModuleData:
    """The submodule spanned by all translated polytabloids, in echelon form."""

    space: TabloidSpace
    field: object
    e_vec: SparseVector
    basis: SubspaceBasis

    @cached_property
    def generators(self) -> tuple:
        """(d, d e_{J,J'}) over the distinguished representatives d of the
        column system, in group order; the identity comes first, so the
        first generator is e_{J,J'}. They span the module."""
        space = self.space
        dreps = distinguished_reps(space.system, space.psi_prime, space.group)
        return tuple((d, act_vector(space, self.field, d, self.e_vec)) for d in dreps)

    @property
    def dimension(self) -> int:
        return self.basis.rank

    @property
    def tabloid_count(self) -> int:
        return len(self.space)


def build_specht_module(
    system: RootSystem,
    psi: Subsystem,
    psi_prime: Subsystem,
    field,
    group: GeneratedGroup | None = None,
    check_full_span: bool = False,
) -> SpechtModuleData:
    """The cyclic module generated by e_{J,J'}.

    The basis is the spin of e_{J,J'} under the simple reflections (see
    `cyclic_submodule`). The translates listed by `generators` are computed
    only when read.

    Warns when the pair is not a useful sub-system; the computation still
    runs and may produce the zero module. `check_full_span` re-derives the
    basis from the full group orbit and raises on disagreement.
    """
    if group is None:
        group = generate_group(system)
    space = enumerate_tabloids(system, psi, group, psi_prime)
    if not space.useful:
        warnings.warn(
            f"{{J, J'}} is not a useful sub-system in {system.label}; "
            "the module may degenerate",
            stacklevel=2,
        )
    e_vec = polytabloid(space, field, group.identity)
    basis = cyclic_submodule(space, field, e_vec)
    if check_full_span:
        full = row_reduce(
            field, [act_vector(space, field, w, e_vec) for w in group], dim=len(space)
        )
        if full != basis:
            raise RuntimeError("generator span differs from the full orbit span")
    return SpechtModuleData(space=space, field=field, e_vec=e_vec, basis=basis)


# the delta form on the tabloid basis, extended bilinearly
bilinear_form = dot


def quotient_dimension(module: SpechtModuleData) -> tuple[int, int, int]:
    """(dim S, dim of S meet its form complement, dim of the quotient).

    The delta form is nondegenerate, so the radical S meet S-perp is the
    complement of S + S-perp.
    """
    basis = module.basis
    perp = form_complement(basis)
    radical = form_complement(
        row_reduce(module.field, perp.rows + basis.rows, dim=basis.dim)
    )
    dim_s = basis.rank
    return (dim_s, radical.rank, dim_s - radical.rank)


def matrix_of(module: SpechtModuleData, w: GroupElement, basis_vectors=None):
    """Matrix of w acting on the module; column j holds coordinates of w b_j.

    With no explicit basis the canonical echelon basis is used, where the
    coordinates of a member are simply its values at the pivot indices. An
    explicit basis must span exactly the module.
    """
    if module.dimension == 0:
        raise ValueError("the zero module affords no matrix representation")
    field = module.field
    space = module.space
    k = module.dimension
    m = space.index_action(w)
    cols = []
    if basis_vectors is None:
        pivots = module.basis.pivots
        for r in module.basis.rows:
            img = _permuted(m, r)
            cols.append([img.entries.get(p, field.zero) for p in pivots])
    else:
        bl = list(basis_vectors)
        if len(bl) != k:
            raise ValueError("basis size must equal the module dimension")
        if row_reduce(field, bl, dim=len(space)) != module.basis:
            raise ValueError("the given vectors do not form a basis of the module")
        for b in bl:
            img = _permuted(m, b)
            coords = solve_coordinates(field, bl, img)
            if coords is None:
                raise ValueError("action leaves the span of the given basis")
            cols.append(coords)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def character_value(module: SpechtModuleData, w: GroupElement):
    """Trace of the action of w; zero on the zero module."""
    field = module.field
    module.space._require_member(w)
    if module.dimension == 0:
        return field.zero
    m = module.space.index_action(w)
    source = sorted(range(len(m)), key=m.__getitem__)  # w sends source[p] to p
    tr = field.zero
    for r, p in zip(module.basis.rows, module.basis.pivots):
        c = r.entries.get(source[p])
        if c is not None:
            tr = field.add(tr, c)
    return tr


def character_norm(module: SpechtModuleData) -> Fraction:
    """(1/|W|) sum of psi(w) psi(w^-1); equals 1 exactly for an irreducible
    rational character. Characteristic zero only. A rational character is
    real, so psi(w^-1) = psi(w) and the sum is one of squares."""
    if module.field.characteristic != 0:
        raise ValueError("character norm requires characteristic zero")
    group = module.space.group
    return sum((character_value(module, w) ** 2 for w in group), Fraction(0)) / len(group)


def format_tabloid(space: TabloidSpace, t: Tabloid) -> str:
    """Brace display {dJ;dJ'} in the stored row and column orders."""
    sys = space.system
    rows = ",".join(format_root(sys, r) for r in t.rows)
    if t.cols:
        cols = ",".join(format_root(sys, r) for r in t.cols)
        return "{%s;%s}" % (rows, cols)
    return "{%s}" % rows


def format_module_vector(space: TabloidSpace, field, v: SparseVector) -> str:
    if not v.entries:
        return "0"
    minus_one = field.neg(field.one)
    parts = []
    for i in sorted(v.entries):
        c = v.entries[i]
        disp = format_tabloid(space, space.tabloids[i])
        if c == field.one:
            parts.append("+" + disp)
        elif c == minus_one:
            parts.append("-" + disp)
        else:
            parts.append(f"+({field.format(c)})*{disp}")
    return " ".join(parts)


def specht_report(
    module: SpechtModuleData,
    sample_words: tuple[tuple[int, ...], ...] = (),
) -> dict:
    """JSON-ready report for a built module."""
    space = module.space
    system = space.system
    dims = quotient_dimension(module)
    report = {
        "ambient": system.label,
        "psi": {
            "label": space.psi.label,
            "J": [format_root(system, r) for r in space.psi.simples],
        },
        "psi_prime": {
            "label": space.psi_prime.label,
            "J'": [format_root(system, r) for r in space.psi_prime.simples],
        },
        "field": field_name(module.field),
        "tabloid_count": len(space),
        "dim_S": dims[0],
        "dim_radical": dims[1],
        "dim_D": dims[2],
    }
    chars = []
    for word in sample_words:
        w = word_to_element(system, word)
        chars.append(
            {"word": list(word), "trace": module.field.format(character_value(module, w))}
        )
    report["sample_characters"] = chars
    return report

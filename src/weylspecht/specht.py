"""Tabloids, polytabloids and the submodules they span inside the tabloid
module.

A tabloid is a left coset of the setwise stabilizer N(psi), keyed by the
image root set d(psi) itself; the stabilizer is exactly the subgroup fixing
that set, so the key is canonical. By orbit-stabilizer the keys are the
orbit of psi's root set, found breadth-first under the simple reflections,
|W:N(psi)| sets in all; W itself is never walked. The BFS records the
image of every key under every simple reflection, and these lists are the
permutation tables of the action on tabloid indices. The module M^psi is
the free module on the tabloids; an element acts by folding the tables
along a word for it, one the caller holds or else its descent word read
off its permutation, and a cyclic submodule is spun by applying them one
at a time. The kappa operator is the signed sum over the reflection group
of the column system, and the polytabloid e_{wJ,wJ'} is the translate
w e_{J,J'} of kappa applied to the base tabloid. The module S is the
submodule spun from e_{J,J'}. None of this generates W; `group` does,
when first read.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .exactlin import (
    QQ,
    SparseVector,
    SubspaceBasis,
    dot,
    echelon_basis,
    echelon_insert,
    field_name,
    form_complement,
    row_reduce,
    solve_coordinates,
    vector,
)
from .rootsys import Root, RootSystem, format_root
from .subsystem import (
    Subsystem,
    complements_meet_trivially,
    distinguished_reps,
    normalizer,
    stabilizer,
)
from .weyl import (
    GeneratedGroup,
    GroupElement,
    apply_to_root,
    descend,
    descent_word,
    generate_group,
    identity,
    reflection_in,
    simple_reflection,
    subgroup_generated,
    word_order,
)

# an element of W, or a word in the 1-based simple reflections naming one
Element = GroupElement | tuple[int, ...]


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

    The record of the pair: W(psi') with its words and signs and the
    usefulness of the pair are computed here once and read by every later
    stage; W itself, and N(psi) swept from it, only when read. Tabloids are
    sorted by (length, word) of their representatives, which is the BFS
    order of the group, so the family prints identically from run to run.
    The action of W is the tabloid-index permutation of each simple
    reflection, recorded by the orbit search and folded along a word for an
    element, or applied one reflection at a time by `cyclic_submodule`;
    nothing is stored per element.
    """

    def __init__(
        self,
        system: RootSystem,
        psi: Subsystem,
        psi_prime: Subsystem | None,
        group: GeneratedGroup | None,
        tabloids: tuple[Tabloid, ...],
        tables: tuple[tuple[int, ...], ...],
        col_group: tuple[GroupElement, ...],
        col_words: tuple[tuple[int, ...], ...],
    ):
        self.system = system
        self.psi = psi
        self.psi_prime = psi_prime
        if group is not None:
            self.group = group
        self.tabloids = tabloids
        self.index = {t.key: i for i, t in enumerate(tabloids)}
        # W(psi'), each element with its word in the sorted J' reflections
        self.col_group = col_group
        self.col_words = col_words
        # a reflection has determinant -1
        self.col_signs = tuple(-1 if len(w) % 2 else 1 for w in col_words)
        # entry k of table i is the index of tau_i applied to tabloid k
        self._tables = tables
        # step i sends a permutation p to p o (table of tau_i)
        self._steps = tuple(map(_step, tables))

    def __len__(self) -> int:
        return len(self.tabloids)

    def __iter__(self):
        return iter(self.tabloids)

    def __getitem__(self, i: int) -> Tabloid:
        return self.tabloids[i]

    @cached_property
    def group(self) -> GeneratedGroup:
        """All of W, generated when first read unless given."""
        return generate_group(self.system)

    @cached_property
    def n_psi(self) -> tuple[GroupElement, ...]:
        """N(psi) in group order, swept from W when first read."""
        return normalizer(self.system, self.psi, self.group)

    @cached_property
    def base_polytabloid(self) -> SparseVector:
        """e_{J,J'} over Q: kappa of tabloid 0, the base tabloid, whose
        representative is the identity. Its coefficients are integers, so
        `polytabloid` reads it into any field and goodness reads its support."""
        if self.psi_prime is None:
            raise ValueError("tabloid space was built without a column system")
        return apply_kappa(self, QQ, SparseVector(len(self), {0: QQ.one}))

    @cached_property
    def col_stabilizer(self) -> tuple[GroupElement, ...]:
        """N(psi) meet W(psi'), in group order: the stabilizer of psi's root
        set inside the column group, so N(psi) itself is never walked."""
        found = stabilizer(self.system, self.psi, self.col_group)
        return tuple(sorted(found, key=word_order(self.system)))

    @cached_property
    def useful(self) -> bool:
        """Whether (psi, psi') is a useful sub-system. False when they meet,
        since the reflection in a shared root stabilizes psi."""
        if self.psi_prime is None:
            raise ValueError("tabloid space was built without a column system")
        return len(self.col_stabilizer) == 1 and complements_meet_trivially(
            self.system, self.psi, self.psi_prime
        )

    @cached_property
    def _spell(self):
        return descent_word(self.system)

    @cached_property
    def _col_steps(self) -> tuple:
        # the tables of the J' reflections, each its descent word folded once
        psi_prime = self.psi_prime
        roots = sorted(set(psi_prime.simples)) if psi_prime is not None else ()
        return tuple(_step(self.index_action(reflection_in(self.system, r))) for r in roots)

    def index_action(self, w: Element) -> tuple[int, ...]:
        """The permutation of tabloid indices induced by w, an element or a
        word in the simple reflections: entry i is the index of w applied to
        tabloid i. An element acts by its descent word."""
        if isinstance(w, GroupElement):
            if w.system_label != self.system.label:
                raise ValueError("element belongs to a different root system")
            w = self._spell(w.perm)
        perm = tuple(range(len(self)))
        # w = tau_a tau_b ... acts as table_a o table_b o ...
        for i in w:
            perm = self._steps[i - 1](perm)
        return perm


def _step(table: tuple[int, ...]):
    """p -> p o table; a one-index getter would return a scalar."""
    return itemgetter(*table) if len(table) > 1 else tuple


def enumerate_tabloids(
    system: RootSystem,
    psi: Subsystem,
    group: GeneratedGroup | None = None,
    psi_prime: Subsystem | None = None,
) -> TabloidSpace:
    """One tabloid per coset of N(psi); count equals the index of N(psi).
    W is not generated; a given `group` is kept as the space's `group`."""
    labels = {psi.ambient_label}
    if group is not None:
        labels.add(group.system_label)
    if psi_prime is not None:
        labels.add(psi_prime.ambient_label)
    if labels != {system.label}:
        raise ValueError("subsystems and group must share the ambient system")
    # the orbit of psi's root indices under the simple reflections, found
    # breadth-first
    gens = [simple_reflection(system, i).perm for i in range(1, system.rank + 1)]
    keys = [frozenset(system.root_index(r) for r in psi.roots)]
    depths, position = [0], {keys[0]: 0}
    images: list[list[int]] = [[] for _ in gens]
    for k, key in enumerate(keys):  # keys grows while read: the BFS queue
        for s, row in zip(gens, images):
            img = frozenset(map(s.__getitem__, key))
            if img not in position:
                position[img] = len(keys)
                keys.append(img)
                depths.append(depths[k] + 1)
            row.append(position[img])
    # the product of a key's greedy descent word is the shortest, then
    # lex-least, element of its coset, so (depth, word) is BFS order over W
    steps = [row.__getitem__ for row in images]
    words = [descend(k, depths.__getitem__, steps) for k in range(len(keys))]
    order = sorted(range(len(keys)), key=lambda k: (depths[k], words[k]))
    new = {k: i for i, k in enumerate(order)}
    tables = tuple(tuple(new[row[k]] for k in order) for row in images)
    folds = [itemgetter(*s) for s in gens]
    tabloids = []
    roots = system.roots
    e = identity(system).perm
    for k in order:
        perm = e
        for i in words[k]:
            perm = folds[i - 1](perm)
        d = GroupElement(perm, system.label)
        key = frozenset(roots[i] for i in keys[k])
        rows = tuple(apply_to_root(system, d, j) for j in psi.simples)
        cols = (
            tuple(apply_to_root(system, d, j) for j in psi_prime.simples)
            if psi_prime is not None
            else ()
        )
        tabloids.append(
            Tabloid(key=key, rep=d, rep_word=words[k], rows=rows, cols=cols)
        )
    if psi_prime is not None:
        col_group, col_words = subgroup_generated(system, psi_prime.simples, words=True)
    else:
        col_group, col_words = (identity(system),), ((),)
    return TabloidSpace(
        system=system,
        psi=psi,
        psi_prime=psi_prime,
        group=group,
        tabloids=tuple(tabloids),
        tables=tables,
        col_group=col_group,
        col_words=col_words,
    )


def act_tabloid(space: TabloidSpace, w: Element, t: Tabloid) -> Tabloid:
    """The tabloid with key w(key); a well-defined action on the family."""
    i = space.index[t.key]
    return space.tabloids[space.index_action(w)[i]]


def _permuted(m: tuple[int, ...], v: SparseVector) -> SparseVector:
    return SparseVector(v.dim, {m[i]: c for i, c in v.entries.items()})


def act_vector(space: TabloidSpace, field, w: Element, v: SparseVector) -> SparseVector:
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
    """The signed sum over the column reflection group, applied to v.

    Each sigma acts by its word in the J' reflections. The closure lists
    every word after its prefix, so each fold is one step past the fold of
    the prefix."""
    if v.dim != len(space):
        raise ValueError("vector does not belong to this tabloid space")
    acc: dict = {}
    get = acc.get
    steps = space._col_steps
    acts = {(): tuple(range(len(space)))}
    for word, sgn in zip(space.col_words, space.col_signs):
        if word:
            acts[word] = steps[word[-1] - 1](acts[word[:-1]])
        m = acts[word]
        for i, c in v.entries.items():
            j = m[i]
            acc[j] = get(j, 0) + (c if sgn > 0 else -c)
    return vector(field, v.dim, acc.items())


def polytabloid(space: TabloidSpace, field, w: Element) -> SparseVector:
    """e_{wJ,wJ'} = w e_{J,J'}, where e_{J,J'} is kappa of the base tabloid."""
    base = space.base_polytabloid.entries
    e = vector(field, len(space), ((i, field.from_int(int(c))) for i, c in base.items()))
    return act_vector(space, field, w, e)


@dataclass
class SpechtModuleData:
    """The submodule spanned by all translated polytabloids, in echelon form."""

    space: TabloidSpace
    field: object
    e_vec: SparseVector
    basis: SubspaceBasis

    @cached_property
    def generators(self) -> tuple[GroupElement, ...]:
        """D_psi', the distinguished representatives d of the column system,
        in group order, identity first; the translates d e_{J,J'} span S."""
        space = self.space
        return distinguished_reps(space.system, space.psi_prime, space.group)

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
    `cyclic_submodule`); W is generated only when `generators` or
    `check_full_span` reads it, unless given.

    Warns when the pair is not a useful sub-system; the computation still
    runs and may produce the zero module. `check_full_span` re-derives the
    basis from the full group orbit and raises on disagreement.
    """
    space = enumerate_tabloids(system, psi, group, psi_prime)
    if not space.useful:
        warnings.warn(
            f"{{J, J'}} is not a useful sub-system in {system.label}; "
            "the module may degenerate",
            stacklevel=2,
        )
    e_vec = polytabloid(space, field, ())
    basis = cyclic_submodule(space, field, e_vec)
    if check_full_span:
        full = row_reduce(
            field,
            [act_vector(space, field, word, e_vec) for word in space.group.words],
            dim=len(space),
        )
        if full != basis:
            raise RuntimeError("generator span differs from the full orbit span")
    return SpechtModuleData(space=space, field=field, e_vec=e_vec, basis=basis)


# the delta form on the tabloid basis, extended bilinearly
bilinear_form = dot


def quotient_dimension(module: SpechtModuleData) -> tuple[int, int, int]:
    """(dim S, dim of S meet its form complement, dim of the quotient).

    The delta form is nondegenerate, so the radical S meet S-perp has the
    dimension of the complement of S + S-perp: dim minus the rank of the sum.
    """
    basis = module.basis
    span = row_reduce(module.field, basis.rows + form_complement(basis).rows, dim=basis.dim)
    dim_s, radical = basis.rank, basis.dim - span.rank
    return (dim_s, radical, dim_s - radical)


def matrix_of(module: SpechtModuleData, w: Element, basis_vectors=None):
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


def character_value(module: SpechtModuleData, w: Element):
    """Trace of the action of w; zero on the zero module."""
    field = module.field
    m = module.space.index_action(w)
    if module.dimension == 0:
        return field.zero
    source = dict(zip(m, range(len(m))))  # w sends source[p] to p
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
    words = module.space.group.words
    return sum((character_value(module, w) ** 2 for w in words), Fraction(0)) / len(words)


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
        chars.append(
            {"word": list(word), "trace": module.field.format(character_value(module, word))}
        )
    report["sample_characters"] = chars
    return report

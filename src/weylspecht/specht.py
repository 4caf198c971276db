"""Tabloids, polytabloids and the submodules they span inside the tabloid
module.

A tabloid is a left coset of the setwise stabilizer N(psi), keyed by the
image root set d(psi) itself; the stabilizer is exactly the subgroup fixing
that set, so the key is canonical. By orbit-stabilizer the keys are the
orbit of psi's root set, |W:N(psi)| sets in all, which `weyl.coset_walk`
lists in W's order of their shortest representatives. The module M^psi is
the free module on the tabloids; a simple reflection permutes them by
sending each key through its root permutation, a word folds these tables,
an element folds its descent word, and a cyclic submodule is spun by
applying the tables one at a time (`spin`). The kappa operator is the
signed sum over the reflection group of the column system, and the
polytabloid e_{wJ,wJ'} is the translate w e_{J,J'} of kappa applied to the
base tabloid. The module S is the submodule spun from e_{J,J'}; it is
spanned by the translates d e_{J,J'} for d in D_psi'. The sums over many
elements, kappa over W(psi') and the character norm over D_psi', fold
each element's tabloid permutation from its parent's in a depth-first
walk (`weyl.fold_preorder`). None of this generates W; `group` does, when
first read, for N(psi) and the oracles.
"""

from __future__ import annotations

import warnings
from collections import deque
from fractions import Fraction
from functools import cached_property
from operator import mul

from .exactlin import (
    QQ,
    SparseVector,
    SubspaceBasis,
    dot,
    echelon_basis,
    echelon_insert,
    from_dense,
    row_reduce,
    vector,
)
from .rootsys import RootSystem, format_root
from .subsystem import (
    Subsystem,
    complements_meet_trivially,
    distinguished_reps,
    normalizer,
    stabilizer,
)
from .weyl import (
    DEFAULT_GROUP_LIMIT,
    GeneratedGroup,
    GroupElement,
    apply_to_root,
    coset_walk,
    descent_walk,
    descent_word,
    elements_of,
    fold_preorder,
    gather,
    generate_group,
    subgroup_generated,
)

# an element of W, or a word in the 1-based simple reflections naming one
Element = GroupElement | tuple[int, ...]


class Tabloid:
    """One coset d N(psi), keyed by the root set d(psi)."""

    __slots__ = ("key", "rep", "rep_word")

    def __init__(self, key: frozenset, rep: GroupElement, rep_word: tuple[int, ...]):
        self.key = key
        self.rep = rep
        self.rep_word = rep_word

    def __eq__(self, other):
        if type(other) is not Tabloid:
            return NotImplemented
        return (self.key, self.rep_word, self.rep) == (other.key, other.rep_word, other.rep)


class TabloidSpace:
    """Indexed tabloid family for (system, psi) with optional column system.

    The record of the pair: W(psi') with its words and signs and the
    usefulness of the pair are computed here once and read by every later
    stage; W itself, and N(psi) swept from it, only when read. Tabloids come
    in the (length, word) order of their representatives, which is the BFS
    order of the group, so the family prints identically from run to run.
    The simple reflections' tabloid-index permutations are read off the keys
    (`_table`); a word folds them, and an element folds its descent word, so
    nothing is stored per element.
    """

    def __init__(
        self,
        system: RootSystem,
        psi: Subsystem,
        psi_prime: Subsystem | None,
        group: GeneratedGroup | None,
        tabloids: tuple[Tabloid, ...],
        limit: int,
    ):
        self.system = system
        self.psi = psi
        self.psi_prime = psi_prime
        if group is not None:
            self.group = group
        self.tabloids = tabloids
        self.index = {t.key: i for i, t in enumerate(tabloids)}
        self.limit = limit  # the points of every walk made for the space, W's too
        # W(psi'), its words in the sorted J' reflections
        self.col_group = subgroup_generated(system, psi_prime.simples if psi_prime else (), limit)

    def __len__(self) -> int:
        return len(self.tabloids)

    def __iter__(self):
        return iter(self.tabloids)

    def __getitem__(self, i: int) -> Tabloid:
        return self.tabloids[i]

    @cached_property
    def group(self) -> GeneratedGroup:
        """All of W, generated when first read unless given."""
        return generate_group(self.system, self.limit)

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
        # seeded with the int 1, kappa sums ints; `vector` reads them into Q
        return apply_kappa(self, QQ, SparseVector(len(self), {0: 1}))

    @cached_property
    def col_stabilizer(self) -> tuple[GroupElement, ...]:
        """N(psi) meet W(psi'), in the preorder of W(psi'): the stabilizer
        of psi's root set inside the column group, so neither N(psi) nor
        the elements of W(psi') are built."""
        return stabilizer(self.system, self.psi, self.col_group)

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
    def _tables(self) -> tuple[tuple[int, ...], ...]:
        # entry k of table i is the index of tau_i applied to tabloid k
        return tuple(map(self._table, self.system.simple_reflection_perms))

    @cached_property
    def _steps(self) -> tuple:
        # step i sends a permutation p to p o (table of tau_i)
        return tuple(map(gather, self._tables))

    @cached_property
    def _spell(self):
        return descent_word(self.system)

    def _table(self, perm) -> tuple[int, ...]:
        # entry k is the index of the key that the root permutation perm
        # sends the key of tabloid k to; `index` holds the keys in order
        roots, index = self.system.roots, self.index
        image = dict(zip(roots, map(roots.__getitem__, perm)))
        return tuple(index[frozenset(map(image.__getitem__, key))] for key in index)

    @cached_property
    def _col_tables(self) -> tuple[tuple[int, ...], ...]:
        # the J' reflections' tables, one per letter of W(psi')'s words
        return tuple(map(self._table, self.col_group.gens))

    @cached_property
    def _displays(self) -> tuple[str, ...]:
        # each tabloid's `format_tabloid`, built once for every vector printed
        return tuple(format_tabloid(self, t) for t in self.tabloids)

    def index_action(self, w: Element) -> tuple[int, ...]:
        """The permutation of tabloid indices induced by w, an element or a
        word in the simple reflections: entry i is the index of w applied to
        tabloid i. An element acts by its descent word."""
        if isinstance(w, GroupElement):
            if w.system_label != self.system.label:
                raise ValueError("element belongs to a different root system")
            w = self._spell(w.perm)
        rank = self.system.rank
        perm = tuple(range(len(self)))
        # w = tau_a tau_b ... acts as table_a o table_b o ...
        for i in w:
            if not 1 <= i <= rank:
                raise IndexError(f"generator index {i} out of range 1..{rank}")
            perm = self._steps[i - 1](perm)
        return perm


def enumerate_tabloids(
    system: RootSystem,
    psi: Subsystem,
    group: GeneratedGroup | None = None,
    psi_prime: Subsystem | None = None,
    limit: int = DEFAULT_GROUP_LIMIT,
) -> TabloidSpace:
    """One tabloid per coset of N(psi); count equals the index of N(psi).
    W is not generated; the space keeps a given `group`, and `limit`."""
    labels = {psi.ambient_label}
    if group is not None:
        labels.add(group.system_label)
    if psi_prime is not None:
        labels.add(psi_prime.ambient_label)
    if labels != {system.label}:
        raise ValueError("subsystems and group must share the ambient system")
    # the orbit of psi's root indices, each point with the shortest element
    # reaching it and its lex-least word, in W's order
    seed = frozenset(system.root_index(r) for r in psi.roots)
    gens = system.simple_reflection_perms
    walk = tuple(coset_walk(gens, seed, limit=limit))
    roots = system.roots
    tabloids = tuple(
        Tabloid(key=frozenset(roots[i] for i in point), rep=d, rep_word=word)
        for (point, word, _), d in zip(walk, elements_of(system, gens, walk))
    )
    return TabloidSpace(
        system=system,
        psi=psi,
        psi_prime=psi_prime,
        group=group,
        tabloids=tabloids,
        limit=limit,
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


def spin(space: TabloidSpace, field, v: SparseVector, by_pivot: dict):
    """Spin v under the simple reflections into the echelon rows `by_pivot`,
    yielding each vector as it enters them.

    Each vector that enlarges the echelon span is pushed through every
    simple reflection, and the images that enlarge it further are queued in
    turn. A span closed under the simple reflections is closed under W,
    since they generate W and are involutions; so a full spin takes at most
    rank * dim images, where the orbit takes |W|. The caller may stop early.
    """
    dim = len(space)
    if v.dim != dim:
        raise ValueError("vector does not belong to this tabloid space")
    queue = deque()
    if echelon_insert(field, by_pivot, v):
        queue.append(v)
        yield v
    while queue and len(by_pivot) < dim:
        u = queue.popleft()
        for table in space._tables:
            img = _permuted(table, u)
            if echelon_insert(field, by_pivot, img):
                queue.append(img)
                yield img


def cyclic_submodule(space: TabloidSpace, field, v: SparseVector) -> SubspaceBasis:
    """Canonical basis of the W-submodule generated by v: the full `spin`."""
    by_pivot: dict = {}
    for _ in spin(space, field, v, by_pivot):
        pass
    return echelon_basis(field, len(space), by_pivot)


def apply_kappa(space: TabloidSpace, field, v: SparseVector) -> SparseVector:
    """The signed sum over the column reflection group, applied to v.

    The sum runs over the inverses, with the same signs: on W(psi')'s
    preorder the node of a word a u gets m(u^-1) o t_a = m((a u)^-1) from
    its parent's, and its sign is the parity of its depth."""
    if v.dim != len(space):
        raise ValueError("vector does not belong to this tabloid space")
    acc: dict = {}
    get = acc.get
    # v's entries for an even word, and negated for an odd one
    signed = (tuple(v.entries.items()), tuple((i, -c) for i, c in v.entries.items()))
    start = tuple(range(len(space)))
    for depth, m in fold_preorder(space.col_group.preorder, map(gather, space._col_tables), start):
        for i, c in signed[depth % 2]:
            j = m[i]
            acc[j] = get(j, 0) + c
    return vector(field, v.dim, acc.items())


def polytabloid(space: TabloidSpace, field, w: Element) -> SparseVector:
    """e_{wJ,wJ'} = w e_{J,J'}, where e_{J,J'} is kappa of the base tabloid."""
    base = space.base_polytabloid.entries
    e = vector(field, len(space), ((i, field.from_int(int(c))) for i, c in base.items()))
    return act_vector(space, field, w, e)


class SpechtModuleData:
    """The submodule spanned by all translated polytabloids, in echelon form."""

    __slots__ = ("space", "field", "e_vec", "basis")

    def __init__(self, space: TabloidSpace, field, e_vec: SparseVector, basis: SubspaceBasis):
        self.space = space
        self.field = field
        self.e_vec = e_vec
        self.basis = basis

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        """D_psi', the distinguished representatives d of the column system,
        in group order, identity first; the translates d e_{J,J'} span S."""
        system = self.space.system
        walk = distinguished_reps(system, self.space.psi_prime, self.space.limit)
        return elements_of(system, system.simple_reflection_perms, walk)

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
    limit: int = DEFAULT_GROUP_LIMIT,
) -> SpechtModuleData:
    """The cyclic module generated by e_{J,J'}.

    The basis is the spin of e_{J,J'} under the simple reflections (see
    `cyclic_submodule`); the space keeps a given `group`, and `limit`.

    Warns when the pair is not a useful sub-system; the computation still
    runs and may produce the zero module.
    """
    space = enumerate_tabloids(system, psi, group, psi_prime, limit)
    if not space.useful:
        warnings.warn(
            f"{{J, J'}} is not a useful sub-system in {system.label}; "
            "the module may degenerate",
            stacklevel=2,
        )
    e_vec = polytabloid(space, field, ())
    basis = cyclic_submodule(space, field, e_vec)
    return SpechtModuleData(space=space, field=field, e_vec=e_vec, basis=basis)


# the delta form on the tabloid basis, extended bilinearly
bilinear_form = dot


def quotient_dimension(module: SpechtModuleData) -> tuple[int, int, int]:
    """(dim S, dim of S meet its form complement, dim of the quotient).

    Over Q the delta form is positive definite, <v, v> = sum v_i^2 > 0 for
    v != 0, so the radical S meet S-perp is 0 and D = S: "dim radical" is a
    modular invariant only. Over F_p the radical is the kernel of the Gram
    matrix of S's basis (James-Murphy 1979). The canonical rows are [I | C]
    up to column order, with k rows and m = n - k free columns, so that
    matrix is I_k + C C^T, and x -> C^T x maps its kernel onto that of
    I_m + C^T C: the radical has dimension k - rank(I_k + C C^T) =
    m - rank(I_m + C^T C). The smaller side is reduced, since the k side
    has 2744 rows at B8 (5,3) and the m side 5039 for a line in 5040
    tabloids. Each row of the Gram matrix is summed as one integer of
    width-bit slots, wide enough that no slot overflows before it is read
    back and reduced mod p.
    """
    basis, field = module.basis, module.field
    k, n, p = basis.rank, basis.dim, field.characteristic
    if p == 0:
        return (k, 0, k)
    # C's rows, each entry at its column's position among the free columns
    free = {j: s for s, j in enumerate(sorted(set(range(n)) - set(basis.pivots)))}
    c_rows = [[(free[j], c) for j, c in r.entries.items() if j in free] for r in basis.rows]
    if 2 * k <= n:  # I_k + C C^T: v v^T summed over C's columns v
        size, vecs = k, [[] for _ in free]
        for a, row in enumerate(c_rows):
            for s, c in row:
                vecs[s].append((a, c))
    else:  # I_m + C^T C: v v^T summed over C's rows v
        size, vecs = n - k, c_rows
    # entry b of a row sits at bit width * b; a slot holds len(vecs) p^2 + 1
    width = 2 * p.bit_length() + len(vecs).bit_length()
    packed = [sum(c << width * b for b, c in v) for v in vecs]
    gram = [1 << width * a for a in range(size)]
    for v, x in zip(vecs, packed):
        for a, c in v:
            gram[a] += c * x
    mask, slots = (1 << width) - 1, range(0, width * size, width)
    rows = (vector(field, size, enumerate(x >> i & mask for i in slots)) for x in gram)
    by_pivot: dict = {}
    radical = size - sum(echelon_insert(field, by_pivot, r) for r in rows)
    return (k, radical, k - radical)


def matrix_of(module: SpechtModuleData, w: Element, basis_vectors=None):
    """Matrix of w acting on the module; column j holds coordinates of w b_j.

    A member v of S is sum_r v[p_r] row_r over the canonical rows and their
    pivots p_r, so its canonical coordinates are its values at the pivots.
    With no explicit basis those are the matrix's columns. An explicit basis
    must span exactly the module; with P its values at the pivots (column j
    for b_j) and Q those of its images, the matrix is P^-1 Q, the right half
    of the canonical form of the k x 2k rows [P | Q].
    """
    if module.dimension == 0:
        raise ValueError("the zero module affords no matrix representation")
    field, space, k = module.field, module.space, module.dimension
    pivots = module.basis.pivots
    m = space.index_action(w)
    if basis_vectors is None:
        cols = [_permuted(m, r).entries for r in module.basis.rows]
        return tuple(tuple(col.get(q, field.zero) for col in cols) for q in pivots)
    bl = list(basis_vectors)
    if len(bl) != k:
        raise ValueError("basis size must equal the module dimension")
    if row_reduce(field, bl, dim=len(space)) != module.basis:
        raise ValueError("the given vectors do not form a basis of the module")
    at = {q: i for i, q in enumerate(pivots)}
    rows = [{} for _ in pivots]
    for j, v in enumerate(bl + [_permuted(m, b) for b in bl]):
        for q, c in v.entries.items():
            if q in at:
                rows[at[q]][j] = c
    pq = row_reduce(field, (SparseVector(2 * k, r) for r in rows), dim=2 * k)
    return tuple(tuple(r.entries.get(j, field.zero) for j in range(k, 2 * k)) for r in pq.rows)


def character_value(module: SpechtModuleData, w: Element):
    """Trace of the action of w; zero on the zero module.

    It is sum_r b_r[m(p_r)] over S's canonical rows b_r and their pivots
    p_r, for m the tabloid permutation of w, so the trace of w^-1, which is
    that of w on every module over every field: an element of a Weyl group
    is a product of two involutions (Carter 1972, Theorem C), so it is
    conjugate to its inverse.
    """
    field, basis = module.field, module.basis
    rows, m = [r.entries for r in basis.rows], module.space.index_action(w)
    # the sum enters the field: Q's zero is a Fraction, F_p's add reduces mod p
    return field.add(field.zero, sum(filter(None, map(dict.get, rows, gather(basis.pivots)(m)))))


def _signed_orbits(space: TabloidSpace):
    """Each tabloid's W(psi')-orbit number and sign, and the orbit count:
    the signed orbit sums are a basis of kappa M. An orbit in which an odd
    element fixes a point, seen as a J' reflection joining two points of
    one sign, is killed by kappa: its points get sign 0."""
    n = len(space)
    orbit, sign, count = [None] * n, [0] * n, 0
    for t in range(n):
        if orbit[t] is not None:
            continue
        orbit[t], sign[t], members, odd = count, 1, [t], False
        for i in members:
            for j in (table[i] for table in space._col_tables):
                if orbit[j] is None:
                    orbit[j], sign[j] = count, -sign[i]
                    members.append(j)
                odd = odd or sign[j] == sign[i]
        if odd:
            for i in members:
                sign[i] = 0
        else:
            count += 1
    return orbit, sign, count


def character_norm(module: SpechtModuleData) -> Fraction:
    """The norm of S's character over Q, dim End_W(S): 1 exactly when S is
    irreducible. Characteristic zero only.

    Let M' = Ind_{W(psi')}^W sgn, with orthonormal basis f_d, d in D_psi',
    and phi: M' -> M, f_d -> d e for e = e_{J,J'}, so S = im phi. Over Q
    submodules split off, so the theta phi, theta in End_W(S), are the phi
    psi phi, psi in Hom_W(M, M'). Hom_W(M', M) is kappa M via beta ->
    beta(f_1), so psi runs over the adjoints beta_v*, v in kappa M, and phi
    beta_v* phi = beta_{L(v)} with L(v) = sum_d <d v, e> d e in kappa M.
    The form is positive definite on kappa M, so the norm is the rank of
    H_ab = sum_d <d v_a, e> <d e, v_b> over the basis v_a of kappa M of
    `_signed_orbits`.

    <d v_a, e> = <v_a, d^-1 e> and <d e, v_b> read m(d^-1) and m(d) at e's
    support. D_psi' is walked by `weyl.descent_walk`, and each node's pair
    is one step from its parent's (`weyl.fold_preorder`): m(d^-1) whole, by
    a right-composition step, and m(d) on the support, by a left one. The
    row (<d e, v_b>)_b is summed in C as one integer of width-bit slots, and
    H's rows are such integers, read back at the end.
    """
    if module.field.characteristic != 0:
        raise ValueError("character norm requires characteristic zero")
    if not module.basis.rank:
        return Fraction(0)
    space = module.space
    system, tables = space.system, space._tables
    orbit, sign, k = _signed_orbits(space)
    support, coeffs = zip(*((i, int(c)) for i, c in space.base_polytabloid.entries.items()))
    gens = system.simple_reflection_perms
    walk = descent_walk(system, system.simple_roots(), gens, space.psi_prime.simples, space.limit)
    # |H_ab| <= |D_psi'| s^2, for s the sum of |e|'s coefficients, and a bit for the sign
    width = (len(walk[0]) * sum(map(abs, coeffs)) ** 2).bit_length() + 1
    ys = [c << width * a for a, c in zip(orbit, sign)]
    # a node of letter a: (m(u^-1) o t_a, t_a o m(u) at the support)
    steps = [lambda v, r=r, t=t: (r(v[0]), gather(v[1])(t)) for r, t in zip(space._steps, tables)]
    at_support, packed = gather(support), [0] * k
    for _, (p, q) in fold_preorder(walk, steps, (tuple(range(len(space))), support)):
        y = sum(map(mul, coeffs, map(ys.__getitem__, q)))
        if y:
            for c, j in zip(coeffs, at_support(p)):
                if sign[j]:
                    packed[orbit[j]] += c * sign[j] * y
    # each slot now holds H_ab + half, in [0, 2^width)
    half = 1 << width - 1
    offset = sum(half << width * b for b in range(k))
    rows = [[(x + offset >> width * b) % (2 * half) - half for b in range(k)] for x in packed]
    return Fraction(row_reduce(QQ, [from_dense(QQ, r) for r in rows], dim=k).rank)


def format_tabloid(space: TabloidSpace, t: Tabloid) -> str:
    """Brace display {dJ;dJ'}: the images of J and J' under the tabloid's
    representative d, in their stored orders; {dJ} when psi' is absent or
    has no simple roots."""
    sys, d = space.system, t.rep
    rows = ",".join(format_root(sys, apply_to_root(sys, d, j)) for j in space.psi.simples)
    psi_prime = space.psi_prime
    if psi_prime is None or not psi_prime.simples:
        return "{%s}" % rows
    cols = ",".join(format_root(sys, apply_to_root(sys, d, j)) for j in psi_prime.simples)
    return "{%s;%s}" % (rows, cols)


def format_module_vector(space: TabloidSpace, field, v: SparseVector) -> str:
    if not v.entries:
        return "0"
    minus_one = field.neg(field.one)
    parts = []
    for i in sorted(v.entries):
        c = v.entries[i]
        disp = space._displays[i]
        if c == field.one:
            parts.append("+" + disp)
        elif c == minus_one:
            parts.append("-" + disp)
        else:
            parts.append(f"+({field.format(c)})*{disp}")
    return " ".join(parts)

"""The Weyl group realized as permutations of the root list.

An element stores the image index of every root. Composition is "right
factor acts first", matching words read left to right: tau_1 tau_2 applied
to a root applies tau_2 first.

`descent_walk` walks depth first down the tree of lex-least reduced words
of a reflection group in its simple reflections, read off inverse root
permutations, and keeps no set of elements: all of W, a subgroup given by
its simple roots, or D_psi, the elements of W keeping a root set positive.
A generated group keeps only that walk's preorder, two bytes per element;
W itself is generated only by `generate_group`, which no stage calls.
The other enumerations are one `coset_walk`, a breadth-first orbit of root
indices under root permutations acting on the left: from psi's root set,
the tabloids; keeping J positive, D_psi in W's order. Either walk reaches
each point by its lex-least reduced word. Anything valued per element is
one step from its parent's value: `fold_preorder` over a preorder, for
the character norm's sum over D_psi' and the stabilizer of psi in
W(psi'), and `fold_walk` in a coset walk's order (the tabloid representatives, the
listed translates of e_{J,J'}). Points and elements are moved by
`operator.itemgetter`: s o p is `itemgetter(*p)(s)`, built in C.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, islice
from operator import itemgetter

from .rootsys import Root, RootSystem, inner_product, reflection


class GroupLimitError(RuntimeError):
    """A walk would pass its limit of points."""


DEFAULT_GROUP_LIMIT = 100_000


class GroupElement:
    """An element of W as the image index of every root, with the label of
    its root system; equal elements compare and hash equal."""

    __slots__ = ("perm", "system_label")

    def __init__(self, perm: tuple[int, ...], system_label: str):
        self.perm = perm
        self.system_label = system_label

    def __eq__(self, other):
        if type(other) is not GroupElement:
            return NotImplemented
        return self.perm == other.perm and self.system_label == other.system_label

    def __hash__(self):
        return hash(self.perm)


def _check_same(a: GroupElement, b: GroupElement) -> None:
    if a.system_label != b.system_label or len(a.perm) != len(b.perm):
        raise ValueError("elements belong to different root systems")


def identity(system: RootSystem) -> GroupElement:
    return GroupElement(tuple(range(len(system.roots))), system.label)


def reflection_in(system: RootSystem, root: Root) -> GroupElement:
    """The permutation of the root list induced by the reflection in `root`."""
    refl = reflection(system.doubled_gram, root)
    images = tuple(system.root_index(refl(r)) for r in system.roots)
    return GroupElement(images, system.label)


def simple_reflection(system: RootSystem, i: int) -> GroupElement:
    """tau_i for a 1-based generator index."""
    if not 1 <= i <= system.rank:
        raise IndexError(f"generator index {i} out of range 1..{system.rank}")
    return GroupElement(system.simple_reflection_perms[i - 1], system.label)


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """a after b: the word ab applies b first."""
    _check_same(a, b)
    return GroupElement(tuple(map(a.perm.__getitem__, b.perm)), a.system_label)


def inverse(a: GroupElement) -> GroupElement:
    inv = [0] * len(a.perm)
    for i, j in enumerate(a.perm):
        inv[j] = i
    return GroupElement(tuple(inv), a.system_label)


def apply_to_root(system: RootSystem, w: GroupElement, r: Root) -> Root:
    if w.system_label != system.label:
        raise ValueError("element belongs to a different root system")
    return system.roots[w.perm[system.root_index(r)]]


def word_to_element(system: RootSystem, word) -> GroupElement:
    """Left-to-right product of simple reflections; the empty word is e."""
    steps = {}
    perm = identity(system).perm
    for i in word:
        step = steps.get(i)
        if step is None:
            step = steps[i] = itemgetter(*simple_reflection(system, i).perm)
        perm = step(perm)
    return GroupElement(perm, system.label)


class GeneratedGroup:
    """A group generated by `gens`, root permutations of reflections, held
    as the preorder of its lex-least reduced words (see `fold_preorder`):
    two `bytes`, each word's length and first letter (0 at the identity).
    `len` reads it; no element is kept, and a reader folds what it needs."""

    __slots__ = ("system", "gens", "preorder")

    def __init__(self, system: RootSystem, gens, preorder: tuple[bytes, bytes]):
        self.system = system
        self.gens = tuple(gens)
        self.preorder = preorder

    @property
    def system_label(self) -> str:
        return self.system.label

    def __len__(self) -> int:
        return len(self.preorder[0])


def gather(indices):
    """The map s -> tuple(s[i] for i in indices): `itemgetter(*indices)`,
    save that a one-index getter would return a scalar and an empty one
    raises."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


def fold_walk(walk, steps, start):
    """Yield each word of a `coset_walk`, in order, with its value: `start`
    for the seed's, and steps[i - 1] of its parent's value for a word i u,
    whose parent u has the given position in the level before. Only that
    level of values is held, and each value costs one step.
    """
    level, prev, cur = 0, [], []
    for _, word, parent in walk:
        if len(word) > level:
            level, prev, cur = len(word), cur, []
        value = steps[word[0] - 1](prev[parent]) if word else start
        cur.append(value)
        yield word, value


def fold_preorder(preorder, steps, start):
    """Yield the depth and value of each node of a group's preorder: `start`
    at the root, and steps[a - 1] of its parent's value at a node of letter
    a, whose parent is the last node one level up. One value per depth is
    held; a node more than one below the last raises ValueError.
    """
    depths, letters = preorder
    if not depths or depths[0]:
        raise ValueError("the preorder lacks its root")
    steps, held, top = (None, *steps), [start] * (max(depths) + 1), 0
    yield 0, start
    for d, a in zip(islice(depths, 1, None), islice(letters, 1, None)):
        if not 0 < d <= top + 1:
            raise ValueError(f"a node at depth {d} follows one at depth {top}")
        top = d
        value = held[d] = steps[a](held[d - 1])
        yield d, value


def elements_of(system: RootSystem, gens, walk) -> tuple[GroupElement, ...]:
    """The elements named by a `coset_walk`'s words in `gens`, root
    permutations: the element of i u is s_i o (the element of u)."""
    steps = [lambda p, s=s: itemgetter(*p)(s) for s in gens]
    label, start = system.label, identity(system).perm
    return tuple(GroupElement(p, label) for _, p in fold_walk(walk, steps, start))


def descent_walk(system: RootSystem, simples, refl, avoid=(), limit=DEFAULT_GROUP_LIMIT):
    """The preorder (see `fold_preorder`) of the group generated by `refl`,
    the reflections in `simples`, a simple system of positive roots: its
    tree of lex-least reduced words, walked depth first.

    The word of v != e is a u, for a the smallest left descent of v and u
    the word of s_a v; a is a left descent of v iff v^-1 sends alpha_a
    negative (Humphreys 1990, 1.6-1.7). So u has the child a u when a is no
    left descent of u and no b < a is one of s_a u: a b < a that is one of
    u must be joined to a, and u^-1 must keep s_a(alpha_b) positive. One
    inverse root permutation per depth is held, a 256-byte table (rank 8
    has at most 240 roots), so u^-1 o s_a is s_a.translate(u^-1).

    A child a u is skipped when u^-1(alpha_a) is in `avoid`, positive roots
    it would send negative. The rest keep `avoid` positive, and so do their
    parents: if v = a u does and u sends beta in `avoid` negative, then
    v(beta) = alpha_a and beta = v^-1(alpha_a) < 0. Visits count to `limit`.
    """
    pc, rank = system.positive_count, len(simples)
    simple = [system.index[a] for a in simples]
    gens = [bytes(range(256))] + [bytes((*s, *range(len(s), 256))) for s in refl]
    # a root index's kind: 1 if negative, 2 if avoided; read at the images of
    # the simple roots under u^-1, 1 marks a left descent of u, 2 a child skipped
    kind = bytes(1 if i >= pc else 2 if r in avoid else 0 for i, r in enumerate(system.roots))
    at_simple, kind = bytes(simple), kind.ljust(256, b"\0")

    @cache
    def children(kinds):
        # the candidate letters, last first, each with the roots to test
        out = []
        for a in range(rank, 0, -1):
            tested = [gens[a][simple[b]] for b in range(a - 1) if kinds[b] == 1]
            if not kinds[a - 1] and not set(tested) & set(simple):
                out.append((a, bytes(tested)))
        return out

    depths, letters = bytearray(), bytearray()
    stack = [(0, 0, gens[0])]
    while stack:
        d, a, inv = stack.pop()
        if len(depths) >= limit:
            raise GroupLimitError(f"coset walk exceeds the limit of {limit} points")
        inv = gens[a].translate(inv)
        depths.append(d)
        letters.append(a)
        for b, tested in children(at_simple.translate(inv).translate(kind)):
            if not tested or max(tested.translate(inv)) < pc:
                stack.append((d + 1, b, inv))
    return bytes(depths), bytes(letters)


def generate_group(system: RootSystem, limit: int = DEFAULT_GROUP_LIMIT) -> GeneratedGroup:
    """All of W: the `descent_walk` of the simple reflections."""
    gens = system.simple_reflection_perms
    walk = descent_walk(system, system.simple_roots(), gens, (), limit)
    return GeneratedGroup(system, gens, walk)


def subgroup_generated(
    system: RootSystem, gens, limit: int = DEFAULT_GROUP_LIMIT
) -> GeneratedGroup:
    """The subgroup generated by the reflections in the given roots, its
    `descent_walk`; the letter i of its words is the reflection in the i-th
    of the sorted distinct roots. Those must be positive and pairwise
    obtuse, so that they are the simple system of the subgroup (Humphreys
    1990, 1.3); any other list raises ValueError.
    """
    roots = sorted(set(map(tuple, gens)))
    if not all(map(system.is_positive, roots)) or any(
        inner_product(system, a, b) > 0 for a, b in combinations(roots, 2)
    ):
        raise ValueError("the roots are not the simple system of the subgroup they generate")
    refl = [reflection_in(system, g).perm for g in roots]
    return GeneratedGroup(system, refl, descent_walk(system, roots, refl, (), limit))


def coset_walk(gens, seed, keep=None, limit=DEFAULT_GROUP_LIMIT):
    """Walk `seed`, a tuple or frozenset of root indices, under `gens`, root
    permutations acting on the left, one length at a time; with `keep`, only
    the images it accepts.

    Within a level the points are ordered by (letter, parent's position).
    A point is first reached from its smallest left descent, so its word is
    the lex-least reduced word of its element in `gens`, and the points come
    by length, then by that word. Yields each point, seed first, with its
    word and its parent's position in the level before, keeping the points
    seen and two levels; a point past the `limit`-th raises GroupLimitError.
    """
    make = type(seed)
    seen = {seed}
    points, words = [seed], [()]
    yield seed, (), None
    while points:
        images, parent_words = list(map(gather, points)), words
        points, words = [], []
        for i, s in enumerate(gens, start=1):
            for j, (image, word) in enumerate(zip(images, parent_words)):
                x = make(image(s))
                if x in seen or (keep is not None and not keep(x)):
                    continue
                if len(seen) >= limit:
                    raise GroupLimitError(f"coset walk exceeds the limit of {limit} points")
                seen.add(x)
                word = (i,) + word
                points.append(x)
                words.append(word)
                yield x, word, j


def group_order(system: RootSystem) -> int:
    """|W| without generating W: the product of m + 1 over the exponents m.

    By Kostant's theorem (Humphreys 1990, 3.20) the exponents are the dual
    partition of the heights of the positive roots: the j-th exponent counts
    the heights held by at least j positive roots.
    """
    per_height = Counter(sum(r) for r in system.roots[: system.positive_count])
    order = 1
    for j in range(1, system.rank + 1):
        order *= 1 + sum(n >= j for n in per_height.values())
    return order


def descent_word(system: RootSystem):
    """The map from a perm to a reduced word of its element.

    tau_i is a right descent of w exactly when w sends alpha_i negative, and
    then w tau_i is one shorter, one getter step away. The word is read from
    its end, taking the smallest descent at each step.
    """
    pc = system.positive_count
    descents = [
        (i, system.index[a], itemgetter(*simple_reflection(system, i).perm))
        for i, a in enumerate(system.simple_roots(), start=1)
    ]

    def spell(perm) -> tuple[int, ...]:
        word = []
        while True:
            for i, j, step in descents:
                if perm[j] >= pc:
                    word.append(i)
                    perm = step(perm)
                    break
            else:
                return tuple(reversed(word))

    return spell


def word_order(system: RootSystem):
    """Sort key on elements, (length, lex-least reduced word), computed
    without W; it orders W as a `coset_walk` from the simple roots does.

    BFS records the lex-least reduced word, whose first letter is the
    smallest left descent of w. The left descents of w are the right
    descents of w^-1, so the descent word of w^-1, reversed, spells it.
    """
    spell = descent_word(system)

    def key(w: GroupElement) -> tuple[int, tuple[int, ...]]:
        word = spell(inverse(w).perm)[::-1]
        return len(word), word

    return key


def length(system: RootSystem, w: GroupElement) -> int:
    """Number of positive roots sent to negative roots."""
    pc = system.positive_count
    return sum(1 for i in range(pc) if w.perm[i] >= pc)


def sign(system: RootSystem, w: GroupElement) -> int:
    return -1 if length(system, w) % 2 else 1

"""The Weyl group realized as permutations of the root list.

An element stores the image index of every root. Composition is "right
factor acts first", matching words read left to right: tau_1 tau_2 applied
to a root applies tau_2 first.

`generate_group` walks W depth first down the tree of lex-least reduced
words, read off inverse root permutations, and keeps no set of elements.
Every other enumeration is one `coset_walk`, a breadth-first orbit of root
indices under root permutations acting on the left: under the reflections
in a root list, their subgroup; from psi's root set, the tabloids; keeping
J positive, D_psi. Either walk reaches each point by its lex-least reduced
word. A generated group keeps only its preorder, two bytes per element.
Anything valued per element is one step from its parent's value:
`fold_preorder` over a group, for the sums over it (kappa, the character
norm), and `fold_walk` in a coset walk's order (the tabloid
representatives, the listed translates of e_{J,J'}). Points and elements
are moved by `operator.itemgetter`: s o p is `itemgetter(*p)(s)`, built in C.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import islice
from operator import itemgetter

from .rootsys import Root, RootSystem, reflection


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
    `len` reads it; `words`, `elements`, iteration, indexing, `identity` and
    == read the BFS order, by length and then word, folded on first read."""

    __slots__ = ("system", "gens", "preorder", "_bfs")

    def __init__(self, system: RootSystem, gens, preorder: tuple[bytes, bytes]):
        self.system = system
        self.gens = tuple(gens)
        self.preorder = preorder
        self._bfs = None

    @property
    def system_label(self) -> str:
        return self.system.label

    def _read(self, i: int):
        # (words, elements) by length and then word, folded on first read:
        # the element of a u is s_a o (the element of u)
        if self._bfs is None:
            gens = enumerate(self.gens, 1)
            steps = [lambda v, a=a, s=s: ((a,) + v[0], itemgetter(*v[1])(s)) for a, s in gens]
            start = ((), identity(self.system).perm)
            folded = (v for _, v in fold_preorder(self.preorder, steps, start))
            words, perms = zip(*sorted(folded, key=lambda v: (len(v[0]), v[0])))
            self._bfs = words, tuple(GroupElement(p, self.system.label) for p in perms)
        return self._bfs[i]

    words = property(lambda self: self._read(0))
    elements = property(lambda self: self._read(1))

    def __eq__(self, other):
        if type(other) is not GeneratedGroup:
            return NotImplemented
        return (self.system_label, self.words, self.elements) == (
            other.system_label, other.words, other.elements
        )

    def __len__(self) -> int:
        return len(self.preorder[0])

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> GroupElement:
        return self.elements[i]

    @property
    def identity(self) -> GroupElement:
        return self.elements[0]


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


def generate_group(system: RootSystem, limit: int = DEFAULT_GROUP_LIMIT) -> GeneratedGroup:
    """All of W, walked depth first down the tree of lex-least reduced words.

    The word of v != e is a u, for a the smallest left descent of v and u
    the word of s_a v; a is a left descent of v iff v^-1 sends alpha_a
    negative (Humphreys 1990, 1.6-1.7). So u has the child a u when a is no
    left descent of u and no b < a is one of s_a u: a b < a that is one of
    u must be joined to a, and u^-1 must keep s_a(alpha_b) positive. One
    inverse root permutation per depth is held, a 256-byte table (rank 8
    has at most 240 roots), so u^-1 o s_a is s_a.translate(u^-1). The
    visits are counted against `limit`.
    """
    pc, rank = system.positive_count, system.rank
    simple = [system.index[a] for a in system.simple_roots()]
    gens = [None] + [bytes((*s, *range(len(s), 256))) for s in system.simple_reflection_perms]
    at_simple, negative = bytes(simple), bytes(i >= pc for i in range(256))

    @cache
    def children(descents):
        # the candidate letters, last first, each with the roots to test
        out = []
        for a in range(rank, 0, -1):
            tested = [gens[a][simple[b]] for b in range(a - 1) if descents[b]]
            if not descents[a - 1] and not set(tested) & set(simple):
                out.append((a, bytes(tested)))
        return out

    depths, letters = bytearray(b"\0"), bytearray(b"\0")
    stack = [(1, a, bytes(range(256))) for a, _ in children(bytes(rank))]
    while stack:
        d, a, inv = stack.pop()
        if len(depths) >= limit:
            raise GroupLimitError(f"coset walk exceeds the limit of {limit} points")
        inv = gens[a].translate(inv)
        depths.append(d)
        letters.append(a)
        for b, tested in children(at_simple.translate(inv).translate(negative)):
            if not tested or max(tested.translate(inv)) < pc:
                stack.append((d + 1, b, inv))
    return GeneratedGroup(system, system.simple_reflection_perms, (bytes(depths), bytes(letters)))


def subgroup_generated(
    system: RootSystem, gens, limit: int = DEFAULT_GROUP_LIMIT
) -> GeneratedGroup:
    """The subgroup generated by the reflections in the given roots, walked
    in deterministic order; the letter i of its words is the reflection in
    the i-th of the sorted distinct roots. Reflections in non-simple roots
    need not be a base, so this is the breadth-first `coset_walk`; its words
    sorted by their reversals are the preorder.
    """
    refl = [reflection_in(system, g).perm for g in sorted(set(gens))]
    seed = tuple(system.index[a] for a in system.simple_roots())
    words = sorted((w for _, w, _ in coset_walk(refl, seed, limit=limit)), key=lambda w: w[::-1])
    preorder = bytes(map(len, words)), bytes(w[0] if w else 0 for w in words)
    return GeneratedGroup(system, refl, preorder)


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
    without W; it orders elements as `generate_group` lists them.

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

"""The Weyl group realized as permutations of the root list.

An element stores the image index of every root. Composition is "right
factor acts first", matching words read left to right: tau_1 tau_2 applied
to a root applies tau_2 first.

Every enumeration is one `coset_walk`: a breadth-first orbit of a tuple or
set of root indices under root permutations acting on the left. The orbit
of the simple roots under the simple reflections is W, since an element is
linear and so named by its images of the simple roots; under the
reflections in a root list it is their subgroup; the orbit of psi's root
set is the tabloids; and the walk that keeps J positive is D_psi. Each
element is reached by a shortest word, so the words are reduced and
reproducible. The walk yields its points as it reaches them and keeps no
element or table; a generated group keeps the walk's words and folds its
elements from them when they are first read. Anything valued per element
is one step from the value of a shorter word: `fold_walk` steps from the
parent word, less its first letter, in the walk's order, for readers that
need that order (the elements, the listed translates of e_{J,J'});
`fold_prefixes` steps from the prefix, less its last letter, depth first,
for sums over a whole group (kappa, the character norm), and holds one
value per letter of the current word instead of a level of the walk.
Points and elements are moved by `operator.itemgetter`: s o p is
`itemgetter(*p)(s)`, built in C.
"""

from __future__ import annotations

from collections import Counter
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
    """A group generated by reflections, in BFS order (identity first), with
    one word each in its generators `gens`, root permutations: for W, the
    simple reflections. Only the words are held until the elements are
    first read (`elements`, iteration, indexing, `identity`, ==), which
    folds them once with `elements_of`; `len` reads the words."""

    __slots__ = ("system", "gens", "words", "_elements")

    def __init__(self, system: RootSystem, gens, words: tuple[tuple[int, ...], ...]):
        self.system = system
        self.gens = tuple(gens)
        self.words = words
        self._elements = None

    @property
    def system_label(self) -> str:
        return self.system.label

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        if self._elements is None:
            self._elements = elements_of(self.system, self.gens, self.words)
        return self._elements

    def __eq__(self, other):
        if type(other) is not GeneratedGroup:
            return NotImplemented
        return (self.system_label, self.words, self.elements) == (
            other.system_label, other.words, other.elements
        )

    def __len__(self) -> int:
        return len(self.words)

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


def fold_walk(words, steps, start):
    """Yield each word of a walk, in order, with its value: `start` for the
    empty word, and steps[i - 1] of its parent's value for a word i u, whose
    parent u is the word less its first letter.

    A walk lists every word after its parent, one letter shorter, so only
    the previous length level of values is held, and each value costs one
    step instead of a fold of its whole word.
    """
    level, prev, cur = 0, {}, {}
    for word in words:
        if len(word) > level:
            level, prev, cur = len(word), cur, {}
        value = cur[word] = steps[word[0] - 1](prev[word[1:]]) if word else start
        yield word, value


def fold_prefixes(words, steps, start):
    """Yield each of a group's walk words with its value, in lexicographic
    order of the words: `start` for the empty word, and steps[i - 1] of
    its prefix's value for a word u i, whose prefix u is the word less its
    last letter.

    A walk's words are the lex-least reduced words of their elements (see
    `coset_walk`), and so are their prefixes: were u' < u a reduced word of
    the element of u, then u' i would be a smaller reduced word of that of
    u i. So in lex order each word comes after its prefix, and every word
    between the two extends that prefix: the order is a depth-first walk
    of the prefix tree, and only the values of the current word's prefixes
    are held, at most one more than the longest word. A word whose prefix
    is not the one held at its depth raises ValueError.
    """
    words = sorted(words)
    if not words or words[0]:
        raise ValueError("the words lack the empty word")
    steps = (None, *steps)
    # slot d holds the last word of length d reached, and its value
    held_words = [()] * (len(max(words, key=len)) + 1)
    held_values = [start] * len(held_words)
    yield (), start
    for word in islice(words, 1, None):
        d = len(word)
        if held_words[d - 1] != word[:-1]:
            raise ValueError(f"word {word} comes without its prefix {word[:-1]}")
        held_words[d] = word
        value = held_values[d] = steps[word[-1]](held_values[d - 1])
        yield word, value


def elements_of(system: RootSystem, gens, words) -> tuple[GroupElement, ...]:
    """The elements named by a walk's words in `gens`, root permutations:
    the element of i u is s_i o (the element of u)."""
    steps = [lambda p, s=s: itemgetter(*p)(s) for s in gens]
    label = system.label
    start = identity(system).perm
    return tuple(GroupElement(p, label) for _, p in fold_walk(words, steps, start))


def _generated(system: RootSystem, gens, limit: int) -> GeneratedGroup:
    # the walk of the simple roots under gens: an element is linear, so its
    # images of the simple roots name it
    seed = tuple(system.index[a] for a in system.simple_roots())
    words = tuple(word for _, word in coset_walk(gens, seed, limit=limit))
    return GeneratedGroup(system, gens, words)


def generate_group(system: RootSystem, limit: int = DEFAULT_GROUP_LIMIT) -> GeneratedGroup:
    """All of W: the walk of the simple roots under the simple reflections.

    BFS reaches every element by a shortest word, so the recorded word of w
    is reduced and its length equals length(w).
    """
    return _generated(system, system.simple_reflection_perms, limit)


def subgroup_generated(
    system: RootSystem, gens, limit: int = DEFAULT_GROUP_LIMIT
) -> GeneratedGroup:
    """The subgroup generated by the reflections in the given roots, walked
    in deterministic order; the letter i of its words is the reflection in
    the i-th of the sorted distinct roots."""
    refl = [reflection_in(system, g).perm for g in sorted(set(gens))]
    return _generated(system, refl, limit)


def coset_walk(gens, seed, keep=None, limit=DEFAULT_GROUP_LIMIT):
    """Walk `seed`, a tuple or frozenset of root indices, under `gens`, root
    permutations acting on the left, one length at a time; with `keep`, only
    the images it accepts.

    Within a level the points are ordered by (letter, parent's position).
    A point is first reached from its smallest left descent, so its word is
    the lex-least reduced word of its element in `gens`, and the points come
    in the order of the generated group: by length, then by that word.
    Yields each point with its word as it reaches it, seed first, and keeps
    only the points seen and two levels of words; a point past the `limit`-th
    raises GroupLimitError.
    """
    make = type(seed)
    seen = {seed}
    points, words = [seed], [()]
    yield seed, ()
    while points:
        images, parent_words = list(map(gather, points)), words
        points, words = [], []
        for i, s in enumerate(gens, start=1):
            for image, word in zip(images, parent_words):
                x = make(image(s))
                if x in seen or (keep is not None and not keep(x)):
                    continue
                if len(seen) >= limit:
                    raise GroupLimitError(f"coset walk exceeds the limit of {limit} points")
                seen.add(x)
                word = (i,) + word
                points.append(x)
                words.append(word)
                yield x, word


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

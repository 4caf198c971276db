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
element is reached by a shortest word, so the recorded words are reduced
and reproducible. Points and elements are moved by `operator.itemgetter`:
s o p is `itemgetter(*p)(s)`, built in C.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .rootsys import Root, RootSystem, reflection


class GroupLimitError(RuntimeError):
    """A walk would exceed its element budget."""


DEFAULT_GROUP_LIMIT = 100_000


@dataclass(frozen=True, slots=True)
class GroupElement:
    perm: tuple[int, ...]
    system_label: str


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


@dataclass(frozen=True)
class GeneratedGroup:
    """All of W in BFS order (identity first) with one reduced word each."""

    system_label: str
    elements: tuple[GroupElement, ...]
    words: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)

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


def _simple_indices(system: RootSystem) -> tuple[int, ...]:
    # the images of the simple roots name an element, as it is linear
    return tuple(system.index[a] for a in system.simple_roots())


def generate_group(system: RootSystem, limit: int = DEFAULT_GROUP_LIMIT) -> GeneratedGroup:
    """All of W: the walk of the simple roots under the simple reflections.

    BFS reaches every element by a shortest word, so the recorded word of w
    is reduced and its length equals length(w).
    """
    if group_order(system) > limit:
        raise GroupLimitError(f"group of {system.label} exceeds the limit of {limit} elements")
    gens = system.simple_reflection_perms
    _, perms, words, _ = coset_walk(system, gens, _simple_indices(system))
    label = system.label
    return GeneratedGroup(label, tuple(GroupElement(p, label) for p in perms), tuple(words))


def subgroup_generated(
    system: RootSystem, gens, limit: int = DEFAULT_GROUP_LIMIT, words: bool = False
):
    """The subgroup generated by the reflections in the given roots: the
    walk of the simple roots under them, in deterministic order.

    With `words`, also the word of each element in those reflections: the
    letter i is the reflection in the i-th of the sorted distinct roots.
    """
    refl = [reflection_in(system, g).perm for g in sorted(set(gens))]
    _, perms, found, _ = coset_walk(system, refl, _simple_indices(system), limit=limit)
    label = system.label
    elements = tuple(GroupElement(p, label) for p in perms)
    return (elements, tuple(found)) if words else elements


def coset_walk(system: RootSystem, gens, seed, keep=None, limit=math.inf):
    """Walk `seed`, a tuple or frozenset of root indices, under `gens`, root
    permutations acting on the left, one length at a time; with `keep`, only
    the images it accepts.

    Within a level the points are ordered by (letter, parent's position).
    A point is first reached from its smallest left descent, so its word is
    the lex-least reduced word of its element in `gens`, and the points come
    in the order of the generated group: by length, then by that word.
    Returns the points, the perms and words of their elements, and for each
    generator its table: entry k is the index of the image of point k, None
    if not kept.
    """
    make = type(seed)
    points, perms, words = [seed], [identity(system).perm], [()]
    position = {seed: 0}
    tables = tuple([] for _ in gens)
    start = 0
    while start < len(points):
        end = len(points)
        images = [gather(x) for x in points[start:end]]
        for i, (s, table) in enumerate(zip(gens, tables), start=1):
            for k, image in enumerate(images, start):
                x = make(image(s))
                if keep is not None and not keep(x):
                    table.append(None)
                    continue
                j = position.get(x)
                if j is None:
                    if len(points) >= limit:
                        raise GroupLimitError(f"coset walk exceeds the limit of {limit} points")
                    j = position[x] = len(points)
                    points.append(x)
                    perms.append(itemgetter(*perms[k])(s))
                    words.append((i,) + words[k])
                table.append(j)
        start = end
    return points, perms, words, tables


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

"""The Weyl group realized as permutations of the root list.

An element stores the image index of every root. Composition is "right
factor acts first", matching words read left to right: tau_1 tau_2 applied
to a root applies tau_2 first. The BFS generator records one reduced word
per element, so downstream enumerations are reproducible.

Elements are composed by `operator.itemgetter` on index tuples: right
multiplication by a fixed g is `itemgetter(*g.perm)`, which builds the perm
of w g in C. The closures and the scans over W run on raw perms, tell
elements apart by the images of the simple roots alone (see
`product_keys`), and build a `GroupElement` only for an element they keep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .rootsys import Root, RootSystem, reflection


class GroupLimitError(RuntimeError):
    """A closure would exceed its element budget."""


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
    _pos: dict = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> GroupElement:
        return self.elements[i]

    @property
    def identity(self) -> GroupElement:
        return self.elements[0]

    def position(self, w: GroupElement) -> int:
        return self._pos[w.perm]

    def word_of(self, w: GroupElement) -> tuple[int, ...]:
        return self.words[self._pos[w.perm]]


def product_keys(system: RootSystem, gs) -> list:
    """For each g, the map w.perm -> key of w g, where the key of an element
    is the tuple of images of the simple roots.

    An element is a linear map, so its key determines it; the closures
    compare these `rank` entries in place of whole permutations.
    """
    simple_idx = [system.index[a] for a in system.simple_roots()]
    return [itemgetter(*(g.perm[j] for j in simple_idx)) for g in gs]


def _closure(system: RootSystem, gens, limit: int, what: str):
    """Breadth-first closure of e under right multiplication by `gens`:
    the index tuples in discovery order, and for each the word of 1-based
    generator positions that first reached it."""
    e = identity(system)
    key_of_e, *keys = product_keys(system, [e, *gens])
    steps = [(itemgetter(*g.perm), key) for g, key in zip(gens, keys)]
    perms = [e.perm]
    words: list[tuple[int, ...]] = [()]
    seen = {key_of_e(e.perm)}
    head = 0
    while head < len(perms):
        p = perms[head]
        word = words[head]
        head += 1
        for i, (step, key) in enumerate(steps, start=1):
            k = key(p)
            if k not in seen:
                if len(perms) >= limit:
                    raise GroupLimitError(f"{what} exceeds the limit of {limit} elements")
                seen.add(k)
                perms.append(step(p))
                words.append(word + (i,))
    return perms, words


def generate_group(system: RootSystem, limit: int = DEFAULT_GROUP_LIMIT) -> GeneratedGroup:
    """Breadth-first closure of the simple reflections.

    BFS reaches every element by a shortest word, so the recorded word of w
    is reduced and its length equals length(w).
    """
    gens = [simple_reflection(system, i) for i in range(1, system.rank + 1)]
    perms, words = _closure(system, gens, limit, f"group of {system.label}")
    label = system.label
    return GeneratedGroup(
        system_label=label,
        elements=tuple(GroupElement(p, label) for p in perms),
        words=tuple(words),
        _pos={p: i for i, p in enumerate(perms)},
    )


def subgroup_generated(
    system: RootSystem, gens, limit: int = DEFAULT_GROUP_LIMIT, words: bool = False
):
    """Closure of the reflections in the given roots, in deterministic order.

    With `words`, also the word of each element in those reflections: the
    letter i is the reflection in the i-th of the sorted distinct roots.
    """
    refl = [reflection_in(system, g) for g in sorted(set(gens))]
    perms, found = _closure(system, refl, limit, "subgroup closure")
    label = system.label
    elements = tuple(GroupElement(p, label) for p in perms)
    return (elements, tuple(found)) if words else elements


def descend(x, depth, steps) -> tuple[int, ...]:
    """Greedy descent from x to depth 0: the letters taken, each the
    smallest 1-based i whose step lowers `depth`."""
    word = []
    while d := depth(x):
        for i, step in enumerate(steps, start=1):
            if depth(step(x)) < d:
                word.append(i)
                x = step(x)
                break
    return tuple(word)


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


def element_to_json(group: GeneratedGroup, w: GroupElement) -> dict:
    """Wire form of an element: its recorded reduced word plus permutation."""
    return {"word": list(group.word_of(w)), "perm": list(w.perm)}


def length(system: RootSystem, w: GroupElement) -> int:
    """Number of positive roots sent to negative roots."""
    pc = system.positive_count
    return sum(1 for i in range(pc) if w.perm[i] >= pc)


def sign(system: RootSystem, w: GroupElement) -> int:
    return -1 if length(system, w) % 2 else 1

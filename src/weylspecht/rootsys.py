"""Root systems of types A-D (rank <= 8), G2 and F4 in the simple-root basis.

A root is an integer coordinate tuple over the simple roots, so the digit
string a1a2...an is the native format. The inner product is carried by a
per-type Gram matrix of exact rationals fixed by the usual coordinate
models; G2 is normalized so the short simple root has squared length 2 and
the long one 6, with (a1, a2) = -3. Twice the Gram matrix is integral for
every type, so inner products and reflections are computed in integers.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from functools import cached_property
from operator import mul

Root = tuple[int, ...]

_LABEL_RE = re.compile(r"^([A-Z])([1-9])$")

_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "G": lambda n: 12,
    "F": lambda n: 48,
}


class RootSystem:
    """An immutable root system; safe to share freely once built.

    roots[:positive_count] are the positive roots in lexicographic order and
    roots[positive_count + i] == -roots[i]. Equality and hash read the
    defining data only; `index` and `doubled_gram` are derived from it.
    """

    def __init__(
        self,
        label: str,
        rank: int,
        roots: tuple[Root, ...],
        gram: tuple[tuple[Fraction, ...], ...],
        positive_count: int,
        index: dict,
        doubled_gram: tuple[tuple[int, ...], ...],
    ):
        self.label = label
        self.rank = rank
        self.roots = roots
        self.gram = gram
        self.positive_count = positive_count
        # root -> its position in roots
        self.index = index
        # 2 * gram, integral for every supported type
        self.doubled_gram = doubled_gram

    def _key(self):
        return self.label, self.rank, self.roots, self.gram, self.positive_count

    def __eq__(self, other):
        if type(other) is not RootSystem:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def simple_roots(self) -> tuple[Root, ...]:
        n = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    @cached_property
    def simple_reflection_perms(self) -> tuple[tuple[int, ...], ...]:
        """The permutation of the root list induced by each simple
        reflection, computed once per system."""
        return tuple(
            tuple(self.root_index(refl(r)) for r in self.roots)
            for refl in (reflection(self.doubled_gram, a) for a in self.simple_roots())
        )

    def root_index(self, v: Root) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise ValueError(f"{v} is not a root of {self.label}") from None

    @staticmethod
    def is_positive(v: Root) -> bool:
        for a in v:
            if a:
                return a > 0
        return False


def negate(v: Root) -> Root:
    return tuple(-a for a in v)


def _gram(series: str, rank: int) -> list[list[Fraction]]:
    n = rank
    g = [[Fraction(0)] * n for _ in range(n)]
    if series == "A":
        for i in range(n):
            g[i][i] = Fraction(2)
        for i in range(n - 1):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    elif series == "B":
        # a_i = e_i - e_{i+1} for i < n, a_n = e_n
        for i in range(n):
            g[i][i] = Fraction(2)
        g[n - 1][n - 1] = Fraction(1)
        for i in range(n - 1):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    elif series == "C":
        # a_i = e_i - e_{i+1} for i < n, a_n = 2 e_n
        for i in range(n):
            g[i][i] = Fraction(2)
        g[n - 1][n - 1] = Fraction(4)
        for i in range(n - 1):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
        if n >= 2:
            g[n - 2][n - 1] = g[n - 1][n - 2] = Fraction(-2)
    elif series == "D":
        # a_i = e_i - e_{i+1} for i < n, a_n = e_{n-1} + e_n
        for i in range(n):
            g[i][i] = Fraction(2)
        for i in range(n - 2):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
        if n >= 3:
            g[n - 3][n - 1] = g[n - 1][n - 3] = Fraction(-1)
    elif series == "G":
        g = [[Fraction(2), Fraction(-3)], [Fraction(-3), Fraction(6)]]
    elif series == "F":
        # a1 = e2-e3, a2 = e3-e4, a3 = e4, a4 = (e1-e2-e3-e4)/2
        g = [
            [Fraction(2), Fraction(-1), Fraction(0), Fraction(0)],
            [Fraction(-1), Fraction(2), Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(-1), Fraction(1), Fraction(-1, 2)],
            [Fraction(0), Fraction(0), Fraction(-1, 2), Fraction(1)],
        ]
    return g


def _cartan_rows(gram) -> tuple[tuple[int, ...], ...]:
    # row i holds 2(a_i, a_j)/(a_i, a_i); integral for crystallographic types
    rows = []
    for i, row in enumerate(gram):
        out = []
        for x in row:
            c = 2 * Fraction(x) / gram[i][i]
            if c.denominator != 1:
                raise ValueError("non-integral Cartan entry")
            out.append(int(c))
        rows.append(tuple(out))
    return tuple(rows)


def _orbit(seeds, maps) -> set:
    """The smallest set containing the seeds and closed under the maps."""
    seen = set(seeds)
    queue = list(seen)
    while queue:
        v = queue.pop()
        for f in maps:
            w = f(v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def build_root_system(label: str) -> RootSystem:
    """Construct a root system from a type tag such as "A3", "D4" or "G2".

    Roots are closed up from the simple roots under the simple reflections;
    the resulting count is checked against the classical formula for the type.
    """
    m = _LABEL_RE.match(label)
    if not m or m.group(1) not in _ROOT_COUNTS:
        raise ValueError(f"unknown root system label {label!r}")
    series, rank = m.group(1), int(m.group(2))
    if series in "ABC" and not 1 <= rank <= 8:
        raise ValueError(f"rank out of supported range for series {series}: {rank}")
    if series == "D" and not 2 <= rank <= 8:
        raise ValueError(f"rank out of supported range for series D: {rank}")
    if series == "G" and rank != 2:
        raise ValueError("series G exists only in rank 2")
    if series == "F" and rank != 4:
        raise ValueError("series F exists only in rank 4")

    gram = _gram(series, rank)
    _cartan_rows(gram)  # raises unless the Gram data is crystallographic
    doubled = tuple(tuple(int(2 * x) for x in row) for row in gram)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = _orbit(simples, [reflection(doubled, a) for a in simples])

    positives = sorted(v for v in seen if RootSystem.is_positive(v))
    expected = _ROOT_COUNTS[series](rank)
    if len(seen) != expected or 2 * len(positives) != len(seen):
        raise RuntimeError(
            f"root closure of {label} produced {len(seen)} roots, expected {expected}"
        )
    roots = tuple(positives) + tuple(negate(p) for p in positives)
    index = {r: i for i, r in enumerate(roots)}
    return RootSystem(
        label=label,
        rank=rank,
        roots=roots,
        gram=tuple(tuple(row) for row in gram),
        positive_count=len(positives),
        index=index,
        doubled_gram=doubled,
    )


def inner_product(system: RootSystem, u: Root, v: Root) -> Fraction:
    """Exact inner product of two coordinate vectors, summed in integers."""
    if len(u) != system.rank or len(v) != system.rank:
        raise ValueError("dimension mismatch")
    doubled = sum(a * sum(map(mul, row, v)) for a, row in zip(u, system.doubled_gram) if a)
    return Fraction(doubled, 2)


def reflection(doubled_gram, alpha: Root):
    """The map v -> v - 2(a,v)/(a,a) a under the given doubled Gram matrix,
    with 2(a,a) and the row 2(a, .) computed once, so each image costs one
    dot product."""
    if not any(alpha):
        raise ValueError("cannot reflect in the zero vector")
    rank = len(doubled_gram)
    if len(alpha) != rank:
        raise ValueError("dimension mismatch")
    # the matrix is symmetric, so its row products give 2(a, e_k)
    row = [sum(map(mul, g, alpha)) for g in doubled_gram]
    norm = sum(map(mul, row, alpha))

    def reflect(v: Root) -> Root:
        if len(v) != rank:
            raise ValueError("dimension mismatch")
        # with c = num / norm = 2(a,v)/(a,a), coordinate k is
        # (x_k norm - num a_k) / norm
        num = 2 * sum(map(mul, row, v))
        if not num:
            return tuple(v)
        out = []
        for a, x in zip(alpha, v):
            y, rem = divmod(x * norm - num * a, norm)
            if rem:
                raise ValueError("non-integral reflection; Gram data is corrupted")
            out.append(y)
        return tuple(out)

    return reflect


def reflect_root(system: RootSystem, alpha: Root, v: Root) -> Root:
    """Reflect v in the hyperplane orthogonal to alpha: v - 2(a,v)/(a,a) a."""
    return reflection(system.doubled_gram, alpha)(v)


def parse_root(system: RootSystem, text: str, if_not_root: str = "warn") -> Root:
    """Parse "110", "-100" or "1,-1,0" into a coordinate tuple.

    The compact digit form covers coefficients 0..9 with an optional leading
    minus applying to the whole vector; anything else uses the comma form.
    `if_not_root` is one of "warn", "error", "ignore".
    """
    if if_not_root not in ("warn", "error", "ignore"):
        raise ValueError(f"unknown if_not_root mode {if_not_root!r}")
    t = text.strip()
    if not t:
        raise ValueError("empty root text")
    if "," in t:
        try:
            coords = tuple(int(p.strip()) for p in t.split(","))
        except ValueError:
            raise ValueError(f"malformed root text {text!r}") from None
    else:
        neg = t.startswith("-")
        body = t[1:] if neg else t
        if not body.isdigit():
            raise ValueError(f"malformed root text {text!r}")
        coords = tuple(int(ch) for ch in body)
        if neg:
            coords = negate(coords)
    if len(coords) != system.rank:
        raise ValueError(
            f"root text {text!r} has length {len(coords)}, expected {system.rank}"
        )
    if coords not in system.index:
        msg = f"{text!r} is not a root of {system.label}"
        if if_not_root == "error":
            raise ValueError(msg)
        if if_not_root == "warn":
            warnings.warn(msg, stacklevel=2)
    return coords


def format_root(system: RootSystem, r: Root) -> str:
    """Format a coordinate vector; round-trips through parse_root."""
    if len(r) != system.rank:
        raise ValueError("dimension mismatch")
    if any(r):
        if all(0 <= a <= 9 for a in r):
            return "".join(map(str, r))
        if all(-9 <= a <= 0 for a in r):
            return "-" + "".join(str(-a) for a in r)
    return ",".join(map(str, r))

"""Exact sparse linear algebra over the rationals and prime fields.

Subspaces are always kept in reduced row-echelon form, so a subspace has
exactly one representation and equality of bases is equality of subspaces.
Rational scalars are fractions.Fraction; elements of F_p are ints in [0, p).

Elimination is integer-first, with one loop per characteristic and no field
method called per entry. Over F_p the echelon rows are monic and every
update is one Python int reduced mod p. Over Q a vector is cleared of its
denominators once on entry and then reduced fraction-free (Bareiss 1968):
each echelon row is a primitive integer vector, with content 1 and a
positive pivot, and a step replaces e by a*e - b*r, where a and b are the
two pivot entries divided by their gcd, and then removes the content of
the result. Only `echelon_basis` leaves the integers, when it divides each
back-substituted row by its pivot to emit the canonical monic basis with
Fraction entries. Every membership test is that reduction: `in_echelon_span`
on working rows, and `contains` on a canonical basis read as working rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class RationalField:
    """The rationals; scalars are Fraction instances."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def format(self, a) -> str:
        return str(a) if a else "0"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, 5 and 7, which has no
    strong pseudoprime below 3215031751 (Pomerance, Selfridge and Wagstaff
    1980), beyond every field order allowed here."""
    if p < 2:
        return False
    for a in (2, 3, 5, 7):
        if p % a == 0:
            return p == a
    # p - 1 = d 2^s with d odd
    d, s = p - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for a prime p < 2**31; scalars are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if not 2 <= p < 2**31:
            raise ValueError(f"prime field order out of range: {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p
        self._zero_text = f"0 mod {p}"  # one string for every zero entry

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def format(self, a) -> str:
        return f"{a} mod {self.p}" if a else self._zero_text

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def field_by_name(name: str):
    """Resolve "Q" or "F<p>" to a field object."""
    if name == "Q":
        return QQ
    if len(name) > 1 and name[0] == "F" and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field {name!r}")


def field_name(field) -> str:
    return "Q" if field.characteristic == 0 else f"F{field.characteristic}"


class SparseVector:
    """Map from index to nonzero scalar; zero entries are never stored."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict):
        self.dim = dim
        self.entries = entries

    def __eq__(self, other):
        if type(other) is not SparseVector:
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def is_zero(self) -> bool:
        return not self.entries


def vector(field, dim: int, items) -> SparseVector:
    """Build a sparse vector from (index, scalar) pairs, summing repeated
    indices and dropping zeros; over F_p the sums are reduced mod p."""
    p = field.characteristic
    zero = field.zero
    entries: dict = {}
    for i, c in items:
        if not 0 <= i < dim:
            raise IndexError(f"index {i} out of range for dimension {dim}")
        c = entries.get(i, zero) + c
        if p:
            c %= p
        if c:
            entries[i] = c
        else:
            entries.pop(i, None)
    return SparseVector(dim, entries)


def from_dense(field, values) -> SparseVector:
    """Build a sparse vector from a dense sequence; ints are coerced."""
    vals = list(values)
    items = []
    for i, c in enumerate(vals):
        if isinstance(c, int):
            c = field.from_int(c)
        items.append((i, c))
    return vector(field, len(vals), items)


def to_dense(field, v: SparseVector) -> list:
    out = [field.zero] * v.dim
    for i, c in v.entries.items():
        out[i] = c
    return out


def vsub(field, u: SparseVector, v: SparseVector) -> SparseVector:
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    negated = ((i, field.neg(c)) for i, c in v.entries.items())
    return vector(field, u.dim, chain(u.entries.items(), negated))


def vscale(field, c, u: SparseVector) -> SparseVector:
    if c == field.zero:
        return SparseVector(u.dim, {})
    return SparseVector(u.dim, {i: field.mul(c, x) for i, x in u.entries.items()})


def dot(field, u: SparseVector, v: SparseVector):
    """The delta pairing: sum of coordinatewise products."""
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    small, big = (u, v) if len(u.entries) <= len(v.entries) else (v, u)
    acc = field.zero
    for i, c in small.entries.items():
        d = big.entries.get(i)
        if d is not None:
            acc = field.add(acc, field.mul(c, d))
    return acc


def _eliminate(p: int, e: dict, m: int, r: dict) -> None:
    """Clear column m of e against the echelon row r, in place.

    Over F_p (p > 0) r is monic and e becomes e - e[m] r mod p. Over Q
    (p = 0) both are integer vectors with r[m] > 0; e becomes a e - b r,
    where a/b = r[m]/e[m] in lowest terms, divided by its content.
    """
    get = e.get
    if p:
        c = p - e[m]
        for i, s in r.items():
            val = (get(i, 0) + c * s) % p
            if val:
                e[i] = val
            else:
                del e[i]
        return
    g = gcd(e[m], r[m])
    a, b = r[m] // g, e[m] // g
    if a != 1:
        for i in e:
            e[i] *= a
    for i, s in r.items():
        val = get(i, 0) - b * s
        if val:
            e[i] = val
        else:
            del e[i]
    g = gcd(*e.values())
    if g > 1:
        for i in e:
            e[i] //= g


def _reduce(p: int, e: dict, by_pivot: dict) -> dict:
    # Clear leading entries until the leading index is not a pivot.
    while e:
        m = min(e)
        r = by_pivot.get(m)
        if r is None:
            break
        _eliminate(p, e, m, r)
    return e


def _integral(entries: dict) -> dict:
    # the entries times the lcm of their denominators
    den = lcm(*(c.denominator for c in entries.values()))
    if den == 1:
        return {i: c.numerator for i, c in entries.items()}
    return {i: c.numerator * (den // c.denominator) for i, c in entries.items()}


def _remainder(p: int, by_pivot: dict, v: SparseVector) -> dict:
    # v reduced against the working rows; over Q first cleared of denominators
    return _reduce(p, dict(v.entries) if p else _integral(v.entries), by_pivot)


def echelon_insert(field, by_pivot: dict, v: SparseVector) -> bool:
    """Reduce v against the echelon rows in `by_pivot` (pivot -> entries)
    and add the remainder as a new row; False if v lies in their span.

    The rows are the kernel's working form, not the canonical basis: monic
    over F_p, primitive integer vectors with a positive pivot over Q. Build
    them only through this function, test membership with `in_echelon_span`
    and read the span through `echelon_basis`.
    """
    p = field.characteristic
    e = _remainder(p, by_pivot, v)
    if not e:
        return False
    m = min(e)
    if p:
        inv = pow(e[m], -1, p)
        by_pivot[m] = {i: c * inv % p for i, c in e.items()}
        return True
    g = gcd(*e.values())
    if e[m] < 0:
        g = -g
    by_pivot[m] = e if g == 1 else {i: c // g for i, c in e.items()}
    return True


def in_echelon_span(field, by_pivot: dict, v: SparseVector) -> bool:
    """Whether v lies in the span of the echelon rows built by
    `echelon_insert`, by the reduction that `echelon_insert` makes; the
    rows are left as they are."""
    return not _remainder(field.characteristic, by_pivot, v)


class SubspaceBasis:
    """Reduced row-echelon basis: the canonical representation of a subspace.

    Equal subspaces have equal bases, so == compares subspaces."""

    __slots__ = ("field", "dim", "rows", "pivots")

    def __init__(self, field, dim: int, rows: tuple, pivots: tuple):
        self.field = field
        self.dim = dim
        self.rows = rows
        self.pivots = pivots

    def __eq__(self, other):
        if type(other) is not SubspaceBasis:
            return NotImplemented
        return (self.field, self.dim, self.pivots, self.rows) == (
            other.field, other.dim, other.pivots, other.rows
        )

    @property
    def rank(self) -> int:
        return len(self.rows)


def row_reduce(field, vectors, dim: int | None = None) -> SubspaceBasis:
    """Canonical reduced row-echelon basis of the span of the given vectors.

    The result depends only on the span, not on the order or scaling of the
    inputs. `dim` is required when `vectors` is empty.
    """
    vectors = list(vectors)
    if dim is None:
        if not vectors:
            raise ValueError("dimension required for empty input")
        dim = vectors[0].dim
    by_pivot: dict[int, dict] = {}
    for v in vectors:
        if v.dim != dim:
            raise ValueError("dimension mismatch")
        echelon_insert(field, by_pivot, v)
    return echelon_basis(field, dim, by_pivot)


def echelon_basis(field, dim: int, by_pivot: dict) -> SubspaceBasis:
    """The canonical basis of the span of the echelon rows built by
    `echelon_insert`; clears each pivot column from the rows above it in
    place, then over Q divides each row by its pivot."""
    p = field.characteristic
    pivots = sorted(by_pivot)
    # descending order keeps used rows clean; a row has no entry left of its pivot
    for k in range(len(pivots) - 1, 0, -1):
        m = pivots[k]
        prow = by_pivot[m]
        for q in pivots[:k]:
            row = by_pivot[q]
            if m in row:
                _eliminate(p, row, m, prow)
    if p:
        rows = tuple(SparseVector(dim, by_pivot[q]) for q in pivots)
    else:
        rows = tuple(SparseVector(dim, _monic(by_pivot[q], q)) for q in pivots)
    return SubspaceBasis(field, dim, rows, tuple(pivots))


def _monic(row: dict, m: int) -> dict:
    d = row[m]
    if d == 1:
        return {i: Fraction(c) for i, c in row.items()}
    return {i: Fraction(c, d) for i, c in row.items()}


def contains(basis: SubspaceBasis, v: SparseVector) -> bool:
    """Whether v lies in the span of the basis, by the reduction that
    `in_echelon_span` makes: the canonical rows are working rows once those
    over Q are cleared of their denominators."""
    if v.dim != basis.dim:
        raise ValueError("dimension mismatch")
    p = basis.field.characteristic
    rows = (r.entries if p else _integral(r.entries) for r in basis.rows)
    return not _remainder(p, dict(zip(basis.pivots, rows)), v)

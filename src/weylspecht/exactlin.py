"""Exact sparse linear algebra over the rationals and prime fields.

Subspaces are always kept in reduced row-echelon form, so a subspace has
exactly one representation and equality of bases is equality of subspaces.
Rational scalars are fractions.Fraction; elements of F_p are ints in [0, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class RationalField:
    """The rationals; scalars are Fraction instances."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1 if d == 2 else 2
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

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def format(self, a) -> str:
        return f"{a} mod {self.p}"

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


@dataclass
class SparseVector:
    """Map from index to nonzero scalar; zero entries are never stored."""

    dim: int
    entries: dict

    def is_zero(self) -> bool:
        return not self.entries

    def copy(self) -> "SparseVector":
        return SparseVector(self.dim, dict(self.entries))


def vector(field, dim: int, items) -> SparseVector:
    """Build a sparse vector from (index, scalar) pairs, dropping zeros."""
    entries: dict = {}
    for i, c in items:
        if not 0 <= i < dim:
            raise IndexError(f"index {i} out of range for dimension {dim}")
        c = field.add(entries.get(i, field.zero), c)
        if c == field.zero:
            entries.pop(i, None)
        else:
            entries[i] = c
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


def vadd(field, u: SparseVector, v: SparseVector) -> SparseVector:
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    entries = dict(u.entries)
    _axpy(field, entries, field.one, v.entries)
    return SparseVector(u.dim, entries)


def vsub(field, u: SparseVector, v: SparseVector) -> SparseVector:
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    entries = dict(u.entries)
    _axpy(field, entries, field.neg(field.one), v.entries)
    return SparseVector(u.dim, entries)


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


def _axpy(field, target: dict, c, source: dict) -> None:
    # target += c * source, in place, dropping zeros
    for i, s in source.items():
        val = field.add(target.get(i, field.zero), field.mul(c, s))
        if val == field.zero:
            target.pop(i, None)
        else:
            target[i] = val


def _reduce(field, entries: dict, by_pivot: dict) -> dict:
    # Subtract pivot rows until the leading index is not a pivot.
    while entries:
        m = min(entries)
        row = by_pivot.get(m)
        if row is None:
            break
        _axpy(field, entries, field.neg(entries[m]), row)
    return entries


def echelon_insert(field, by_pivot: dict, v: SparseVector) -> bool:
    """Reduce v against the monic rows in `by_pivot` (pivot -> entries) and
    add the remainder as a new monic row; False if v lies in their span."""
    e = _reduce(field, dict(v.entries), by_pivot)
    if not e:
        return False
    p = min(e)
    inv = field.inv(e[p])
    by_pivot[p] = {i: field.mul(inv, c) for i, c in e.items()}
    return True


@dataclass
class SubspaceBasis:
    """Reduced row-echelon basis: the canonical representation of a subspace."""

    field: object
    dim: int
    rows: tuple
    pivots: tuple

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
    pivots = sorted(by_pivot)
    # clear pivot columns everywhere; descending order keeps used rows clean
    for p in reversed(pivots):
        prow = by_pivot[p]
        for q in pivots:
            if q == p:
                continue
            c = by_pivot[q].get(p)
            if c is not None:
                _axpy(field, by_pivot[q], field.neg(c), prow)
    rows = tuple(SparseVector(dim, by_pivot[p]) for p in pivots)
    return SubspaceBasis(field, dim, rows, tuple(pivots))


def contains(basis: SubspaceBasis, v: SparseVector) -> bool:
    """Whether v reduces to zero against the basis."""
    if v.dim != basis.dim:
        raise ValueError("dimension mismatch")
    by_pivot = {p: r.entries for p, r in zip(basis.pivots, basis.rows)}
    return not _reduce(basis.field, dict(v.entries), by_pivot)


def form_complement(basis: SubspaceBasis) -> SubspaceBasis:
    """All vectors pairing to zero with every basis row under the delta form.

    Since the delta form has identity Gram matrix on the standard basis, this
    is the nullspace of the matrix whose rows are the basis vectors; its
    dimension is always dim - rank.
    """
    field = basis.field
    pivset = set(basis.pivots)
    free = [j for j in range(basis.dim) if j not in pivset]
    vecs = []
    for f in free:
        entries = {f: field.one}
        for row, p in zip(basis.rows, basis.pivots):
            c = row.entries.get(f)
            if c is not None:
                entries[p] = field.neg(c)
        vecs.append(SparseVector(basis.dim, entries))
    return row_reduce(field, vecs, dim=basis.dim)


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of the intersection of two subspaces.

    The delta form is nondegenerate over every field, so the intersection is
    the complement of the sum of the two complements.
    """
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    perps = form_complement(a).rows + form_complement(b).rows
    return form_complement(row_reduce(a.field, perps, dim=a.dim))


def solve_coordinates(field, basis_vectors, v: SparseVector):
    """Coordinates of v in the given independent vectors, or None if outside.

    Raises ValueError when the given vectors are linearly dependent.
    """
    bl = list(basis_vectors)
    k = len(bl)
    support = set(v.entries)
    for b in bl:
        if b.dim != v.dim:
            raise ValueError("dimension mismatch")
        support.update(b.entries)
    rows = []
    for t in sorted(support):
        entries = {}
        for i, b in enumerate(bl):
            c = b.entries.get(t)
            if c is not None:
                entries[i] = c
        c = v.entries.get(t)
        if c is not None:
            entries[k] = c
        rows.append(SparseVector(k + 1, entries))
    rr = row_reduce(field, rows, dim=k + 1)
    if k in rr.pivots:
        return None
    if rr.rank < k:
        raise ValueError("basis vectors are linearly dependent")
    coords = [field.zero] * k
    for row, p in zip(rr.rows, rr.pivots):
        coords[p] = row.entries.get(k, field.zero)
    return coords

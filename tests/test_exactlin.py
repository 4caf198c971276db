from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bareiss_rank,
    dense_rows,
    form_complement,
    intersect,
    is_prime_by_trial_division,
    row_reduce_by_field_ops,
)
from weylspecht.exactlin import (
    QQ,
    PrimeField,
    SparseVector,
    _is_prime,
    contains,
    dot,
    field_by_name,
    from_dense,
    row_reduce,
    to_dense,
    vscale,
)


def q(*values):
    return from_dense(QQ, list(values))


# --------------------------------------------------------------------------
# fields


def test_rational_field_formats():
    assert QQ.format(Fraction(3, 2)) == "3/2"
    assert QQ.format(Fraction(-1)) == "-1"


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(7), PrimeField(2**31 - 1)], ids=["Q", "F7", "F2147483647"]
)
def test_format_shares_one_zero_text(field):
    # a matrix of a simple reflection is mostly zeros: their text is one object
    p = field.characteristic
    values = [0, 1, p - 1] if p else [Fraction(0), Fraction(1), Fraction(3, 4)]
    texts = [field.format(field.from_int(x) if p else x) for x in values]
    if p:
        assert texts == ["0 mod %d" % p, "1 mod %d" % p, "%d mod %d" % (p - 1, p)]
    else:
        assert texts == ["0", "1", "3/4"]
    assert field.format(field.zero) is field.format(field.from_int(0)) is texts[0]


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.add(5, 4) == 2
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    assert f7.neg(2) == 5
    assert f7.format(4) == "4 mod 7"


def test_prime_field_rejects_bad_orders():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31)


@pytest.mark.parametrize(
    "numbers",
    [
        range(-2, 20000),
        # strong pseudoprimes to base 2, to bases 2 and 3, to bases 2, 3 and 5
        (2047, 1373653, 25326001),
        # the largest allowed order, the prime below it, and one less than it
        (2147483647, 2147483629, 2147483646),
    ],
    ids=["below-20000", "pseudoprimes", "near-2^31"],
)
def test_primality_matches_trial_division(numbers):
    for n in numbers:
        assert _is_prime(n) == is_prime_by_trial_division(n), n


def test_prime_field_zero_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_field_by_name():
    assert field_by_name("Q") == QQ
    assert field_by_name("F2") == PrimeField(2)
    with pytest.raises(ValueError):
        field_by_name("R")


# --------------------------------------------------------------------------
# row reduction


def test_rank_of_hand_example():
    basis = row_reduce(QQ, [q(1, 0, -1), q(0, 0, -1), q(1, 0, 0)])
    assert basis.rank == 2


def test_empty_input_has_rank_zero():
    assert row_reduce(QQ, [], dim=5).rank == 0


def test_scalar_multiple_collapses():
    v = q(2, -3, 1)
    assert row_reduce(QQ, [v, vscale(QQ, Fraction(2), v)]).rank == 1
    # one subspace, spanned two ways, has one basis; its field is part of it
    assert row_reduce(QQ, [vscale(QQ, Fraction(-1, 3), v)]) == row_reduce(QQ, [v])
    f5 = PrimeField(5)
    assert row_reduce(f5, [from_dense(f5, [2, -3, 1])]) != row_reduce(QQ, [v])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        row_reduce(QQ, [q(1, 0), q(1, 0, 0)])


small_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=1,
        max_size=5,
    )
)


@settings(deadline=None)
@given(small_matrices)
def test_rank_matches_bareiss(rows):
    vectors = [from_dense(QQ, r) for r in rows]
    assert row_reduce(QQ, vectors).rank == bareiss_rank(rows)


@settings(deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_row_reduce_canonical(rows, rng):
    vectors = [from_dense(QQ, r) for r in rows]
    basis = row_reduce(QQ, vectors)
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    assert row_reduce(QQ, shuffled) == basis
    assert row_reduce(QQ, basis.rows, dim=basis.dim) == basis


@settings(deadline=None)
@given(small_matrices, st.sampled_from([2, 3, 5]))
def test_prime_rank_never_exceeds_rational_rank(rows, p):
    fp = PrimeField(p)
    rank_q = row_reduce(QQ, [from_dense(QQ, r) for r in rows]).rank
    rank_p = row_reduce(fp, [from_dense(fp, r) for r in rows]).rank
    assert rank_p <= rank_q


@st.composite
def matrices_with_repeats(draw, entries):
    """(cols, rows): a small matrix that may hold zero rows and repeated rows."""
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=6))
    rows += [[0] * cols] * draw(st.integers(0, 2))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return cols, draw(st.permutations(rows))


rationals = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)
PRIMES = [2, 3, 5, 2**31 - 1]
residues = st.one_of(st.integers(-9, 9), st.integers(-(2**31), 2**31))


def _assert_matches_field_ops(field, cols, rows):
    vectors = [from_dense(field, r) for r in rows]
    basis = row_reduce(field, vectors, dim=cols)
    assert basis == row_reduce_by_field_ops(field, vectors, dim=cols)
    for v in vectors:
        assert contains(basis, v)
    return basis


@settings(deadline=None)
@given(matrices_with_repeats(rationals))
def test_rational_row_reduce_matches_field_ops(matrix):
    basis = _assert_matches_field_ops(QQ, *matrix)
    assert all(type(c) is Fraction for r in basis.rows for c in r.entries.values())
    assert all(r.entries[p] == 1 for r, p in zip(basis.rows, basis.pivots))


@settings(deadline=None)
@given(matrices_with_repeats(residues), st.sampled_from(PRIMES))
def test_prime_row_reduce_matches_field_ops(matrix, p):
    basis = _assert_matches_field_ops(PrimeField(p), *matrix)
    assert all(0 < c < p for r in basis.rows for c in r.entries.values())


@settings(deadline=None)
@given(st.sampled_from([0] + PRIMES), st.data())
def test_contains_matches_rank_growth(p, data):
    field, entries = (PrimeField(p), residues) if p else (QQ, rationals)
    cols, rows = data.draw(matrices_with_repeats(entries))
    v = from_dense(field, data.draw(st.lists(entries, min_size=cols, max_size=cols)))
    vectors = [from_dense(field, r) for r in rows]
    basis = row_reduce(field, vectors, dim=cols)
    grown = row_reduce_by_field_ops(field, vectors + [v], dim=cols)
    assert contains(basis, v) == (grown.rank == basis.rank)


def test_rank_drop_in_characteristic_two():
    rows = [[1, 1], [1, -1]]
    assert row_reduce(QQ, [from_dense(QQ, r) for r in rows]).rank == 2
    f2 = PrimeField(2)
    assert row_reduce(f2, [from_dense(f2, r) for r in rows]).rank == 1


# --------------------------------------------------------------------------
# intersection


def test_intersect_with_self(a_basis=None):
    a = row_reduce(QQ, [q(1, 1, 0), q(0, 1, 1)])
    assert intersect(a, a) == a


def test_intersect_complementary_coordinates():
    a = row_reduce(QQ, [q(1, 0, 0, 0), q(0, 1, 0, 0)])
    b = row_reduce(QQ, [q(0, 0, 1, 0), q(0, 0, 0, 1)])
    assert intersect(a, b).rank == 0


def test_intersect_hand_example():
    a = row_reduce(QQ, [q(1, 1, 0), q(0, 1, 1)])
    b = row_reduce(QQ, [q(1, 0, 0), q(0, 0, 1)])
    meet = intersect(a, b)
    assert meet == row_reduce(QQ, [q(1, 0, -1)])


def test_intersect_field_mismatch():
    a = row_reduce(QQ, [q(1, 0)])
    f2 = PrimeField(2)
    b = row_reduce(f2, [from_dense(f2, [1, 0])])
    with pytest.raises(ValueError):
        intersect(a, b)


@settings(deadline=None)
@given(small_matrices, small_matrices)
def test_intersection_dimension_formula(rows_a, rows_b):
    cols = max(len(rows_a[0]), len(rows_b[0]))
    rows_a = [r + [0] * (cols - len(r)) for r in rows_a]
    rows_b = [r + [0] * (cols - len(r)) for r in rows_b]
    a = row_reduce(QQ, [from_dense(QQ, r) for r in rows_a])
    b = row_reduce(QQ, [from_dense(QQ, r) for r in rows_b])
    joint = row_reduce(QQ, list(a.rows) + list(b.rows), dim=cols)
    assert intersect(a, b).rank == a.rank + b.rank - joint.rank


# --------------------------------------------------------------------------
# complement and membership


def test_complement_of_full_space():
    full = row_reduce(QQ, [q(1, 0), q(0, 1)])
    assert form_complement(full).rank == 0


def test_complement_of_zero_space():
    zero = row_reduce(QQ, [], dim=3)
    assert form_complement(zero).rank == 3


def test_complement_hand_example():
    a = row_reduce(QQ, [q(1, -1, 0, 0)])
    comp = form_complement(a)
    assert comp.rank == 3
    assert contains(comp, q(1, 1, 0, 0))
    assert not contains(comp, q(1, -1, 0, 0))


def test_contains_zero_vector():
    a = row_reduce(QQ, [q(1, 2, 3)])
    assert contains(a, SparseVector(3, {}))


def test_zero_space_contains_nothing_else():
    zero = row_reduce(QQ, [], dim=3)
    assert not contains(zero, q(1, 0, 0))


def test_contains_scalar_multiple():
    a = row_reduce(QQ, [q(1, 1)])
    assert contains(a, q(2, 2))


@settings(deadline=None)
@given(small_matrices)
def test_complement_dimension_and_orthogonality(rows):
    basis = row_reduce(QQ, [from_dense(QQ, r) for r in rows])
    comp = form_complement(basis)
    assert comp.rank == basis.dim - basis.rank
    for u in basis.rows:
        for v in comp.rows:
            assert dot(QQ, u, v) == 0


def test_dense_roundtrip():
    v = q(0, -2, 5)
    assert to_dense(QQ, v) == [Fraction(0), Fraction(-2), Fraction(5)]


def test_dense_rows_oracle_helper():
    basis = row_reduce(QQ, [q(1, 0, -1), q(0, 2, 1)])
    assert bareiss_rank(dense_rows(basis)) == 2


def test_bareiss_known_ranks():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert bareiss_rank([[0, 0], [0, 0]]) == 0

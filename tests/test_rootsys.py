from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EPS_SIMPLES, eps_closure, eps_dot, eps_embed, eps_reflect
from weylspecht.rootsys import (
    build_root_system,
    format_root,
    inner_product,
    negate,
    parse_root,
    reflect_root,
)

COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
}

SMALL_LABELS = (
    ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "C1", "C2", "C3", "C4"]
    + ["D2", "D3", "D4", "G2", "F4"]
)


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_classical_root_counts(label):
    system = build_root_system(label)
    if label == "G2":
        expected = 12
    elif label == "F4":
        expected = 48
    else:
        expected = COUNTS[label[0]](int(label[1]))
    assert len(system.roots) == expected
    assert system.positive_count * 2 == expected
    # built twice, a system compares and hashes equal
    again = build_root_system(label)
    assert again is not system and again == system and hash(again) == hash(system)
    assert system != build_root_system("A1" if label != "A1" else "A2")


@pytest.mark.parametrize("label", ["A5", "B5", "C5", "D5", "A8", "B8", "C8", "D8"])
def test_higher_rank_root_counts(label):
    system = build_root_system(label)
    assert len(system.roots) == COUNTS[label[0]](int(label[1]))


@pytest.mark.parametrize("label", ["A3", "G2", "D4"])
def test_counts_against_epsilon_closure(label):
    system = build_root_system(label)
    eps = eps_closure(EPS_SIMPLES[label])
    assert len(system.roots) == len(eps)
    embedded = {eps_embed(EPS_SIMPLES[label], r) for r in system.roots}
    assert embedded == eps


@pytest.mark.parametrize(
    "label", ["A0", "A9", "Z9", "D1", "G3", "F3", "E6", "x", "A10"]
)
def test_bad_labels_rejected(label):
    with pytest.raises(ValueError):
        build_root_system(label)


def test_root_ordering_is_lex_with_matching_negatives(a3):
    pc = a3.positive_count
    positives = a3.roots[:pc]
    assert list(positives) == sorted(positives)
    for i, p in enumerate(positives):
        assert a3.roots[pc + i] == negate(p)


def test_inner_products_a3(a3):
    a1, a2, a3_ = a3.simple_roots()
    assert inner_product(a3, a1, a1) == 2
    assert inner_product(a3, a1, a3_) == 0
    assert inner_product(a3, a1, a2) == -1


def test_inner_product_g2_matches_epsilon_model(g2):
    a1, a2 = g2.simple_roots()
    assert inner_product(g2, a1, a2) == -3
    e1, e2 = EPS_SIMPLES["G2"]
    assert eps_dot(e1, e2) == -3
    assert g2.gram == ((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(6)))


def test_inner_product_dimension_mismatch(a3):
    with pytest.raises(ValueError):
        inner_product(a3, (1, 0), (0, 1, 0))


def test_reflection_negates_own_root(a3):
    a1 = a3.simple_roots()[0]
    assert reflect_root(a3, a1, a1) == negate(a1)


def test_reflection_example_a3(a3):
    a2 = a3.simple_roots()[1]
    assert reflect_root(a3, a2, parse_root(a3, "001")) == parse_root(a3, "011")


def test_reflection_example_g2(g2):
    a1, a2 = g2.simple_roots()
    image = reflect_root(g2, a1, a2)
    assert image == (3, 1)
    # same computation in epsilon coordinates
    e1, e2 = EPS_SIMPLES["G2"]
    assert eps_embed(EPS_SIMPLES["G2"], image) == eps_reflect(e1, e2)


def test_reflect_zero_vector_rejected(a3):
    with pytest.raises(ValueError):
        reflect_root(a3, (0, 0, 0), (1, 0, 0))


SUPPORTED_LABELS = [
    pytest.param(label, marks=pytest.mark.slow) if label[1] in "78" else label
    for label in (
        [f"A{n}" for n in range(1, 9)]
        + [f"B{n}" for n in range(2, 9)]
        + [f"C{n}" for n in range(3, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["G2", "F4"]
    )
]


def _fraction_ip(system, u, v):
    return sum(
        (system.gram[i][j] * a * b for i, a in enumerate(u) for j, b in enumerate(v)),
        Fraction(0),
    )


def _fraction_reflection(system, alpha, v):
    # v - 2(a,v)/(a,a) a, from the Fraction Gram matrix
    c = 2 * _fraction_ip(system, alpha, v) / _fraction_ip(system, alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_integer_reflection_matches_fraction_formula(label):
    system = build_root_system(label)
    n = system.rank
    for alpha in system.roots:
        # (alpha, v) = sum_j row[j] v_j with row = alpha^T gram, computed once
        row = [sum(alpha[i] * system.gram[i][j] for i in range(n)) for j in range(n)]
        norm = sum(r * a for r, a in zip(row, alpha))
        for v in system.roots:
            c = 2 * sum(r * x for r, x in zip(row, v)) / norm
            expected = tuple(x - c * a for x, a in zip(v, alpha))
            assert reflect_root(system, alpha, v) == expected


def test_reflection_in_non_root_vectors_matches_fraction_formula(a3):
    # 2(a,v)/(a,a) = -1/2 here, yet the image is integral
    assert reflect_root(a3, (2, 0, 0), (0, 1, 0)) == (1, 1, 0)
    assert _fraction_reflection(a3, (2, 0, 0), (0, 1, 0)) == (1, 1, 0)


def test_non_integral_reflection_rejected(a3):
    # 2(a,v)/(a,a) = -1/3, and v + a/3 is not integral
    assert _fraction_reflection(a3, (2, 1, 0), (0, 0, 1))[0] == Fraction(2, 3)
    with pytest.raises(ValueError, match="non-integral"):
        reflect_root(a3, (2, 1, 0), (0, 0, 1))


def test_reflection_dimension_mismatch(a3):
    with pytest.raises(ValueError, match="dimension mismatch"):
        reflect_root(a3, (1, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        reflect_root(a3, (1, 0, 0), (0, 1))


@pytest.mark.parametrize("label", ["A3", "B4", "C4", "D5", "G2", "F4"])
def test_inner_product_matches_fraction_gram(label):
    system = build_root_system(label)
    for u in system.roots:
        for v in system.roots:
            value = inner_product(system, u, v)
            assert isinstance(value, Fraction) and value == _fraction_ip(system, u, v)


@pytest.mark.parametrize("label", ["A3", "G2"])
def test_closure_and_involution(label):
    system = build_root_system(label)
    roots = set(system.roots)
    for alpha in system.roots:
        for beta in system.roots:
            image = reflect_root(system, alpha, beta)
            assert image in roots
            assert reflect_root(system, alpha, image) == beta


def test_closure_sampled_d4(d4):
    roots = set(d4.roots)
    for alpha in d4.roots[:6]:
        for beta in d4.roots:
            assert reflect_root(d4, alpha, beta) in roots


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_inner_product_positive_definite_on_roots(label):
    system = build_root_system(label)
    n = system.rank
    assert all(
        system.gram[i][j] == system.gram[j][i] for i in range(n) for j in range(n)
    )
    for r in system.roots:
        assert inner_product(system, r, r) > 0
    for u in system.roots[:4]:
        for v in system.roots:
            assert inner_product(system, u, v) == inner_product(system, v, u)


# --------------------------------------------------------------------------
# parsing and formatting


def test_parse_digit_strings(a3, d4):
    assert parse_root(a3, "110") == (1, 1, 0)
    assert parse_root(a3, "-100") == (-1, 0, 0)
    assert format_root(d4, parse_root(d4, "0101")) == "0101"


def test_parse_comma_form(a3):
    with pytest.warns(UserWarning):
        assert parse_root(a3, "1,-1,0") == (1, -1, 0)


def test_parse_malformed(a3):
    for text in ("", "1a0", "1-10", "--100", "1,,0"):
        with pytest.raises(ValueError):
            parse_root(a3, text)
    with pytest.raises(ValueError):
        parse_root(a3, "1100")  # wrong length


def test_parse_non_root_policies(a3):
    with pytest.warns(UserWarning):
        parse_root(a3, "101")
    with pytest.raises(ValueError):
        parse_root(a3, "101", if_not_root="error")
    assert parse_root(a3, "101", if_not_root="ignore") == (1, 0, 1)


def test_parse_rejects_an_unknown_policy(a3):
    # an unknown mode is an error, not a silent "ignore", root or not
    for text in ("101", "110"):
        with pytest.raises(ValueError, match="'raise'"):
            parse_root(a3, text, if_not_root="raise")


@settings(deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_format_parse_roundtrip(coords):
    system = build_root_system("A3")
    v = tuple(coords)
    assert parse_root(system, format_root(system, v), if_not_root="ignore") == v


def test_all_roots_roundtrip(d4):
    for r in d4.roots:
        assert parse_root(d4, format_root(d4, r)) == r

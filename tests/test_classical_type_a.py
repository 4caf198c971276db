"""The row-reading pairs of type A against the classical Specht modules.

For a partition lambda of n the pair (J, J') of the row-reading tableau
affords James's Specht module S^lambda of the symmetric group W(A_{n-1}).
Its expected invariants come from the hook lengths of lambda alone, and
its modular quotient D^lambda from the Gram matrix of James's standard
polytabloids, built from tableaux of 1..n, so these oracles share no code
with the construction.
"""

import pytest

from oracles import (
    character_norm_by_fold,
    distinct_part_partitions,
    hook_dimension,
    is_p_core,
    james_dimension,
    quotient_dimension_by_sum,
    row_reading_pair,
)
from weylspecht import (
    build_root_system,
    build_specht_module,
    character_norm,
    closure_from_simples,
    is_good_subsystem,
    is_useful_subsystem,
    quotient_dimension,
)
from weylspecht.exactlin import QQ, PrimeField

# distinct parts, so N(psi) is the row group; one part gives the trivial module
SHAPES = [s for n in range(3, 9) for s in distinct_part_partitions(n) if len(s) > 1]
SLOW_AT_8 = [pytest.param(s, marks=pytest.mark.slow) if sum(s) == 8 else s for s in SHAPES]


def _pair(shape):
    system = build_root_system(f"A{sum(shape) - 1}")
    j, jp = row_reading_pair(shape)
    return system, closure_from_simples(system, j), closure_from_simples(system, jp)


def test_shapes_are_the_sixteen_with_distinct_parts():
    assert len(SHAPES) == 16
    assert (3, 2, 1) in SHAPES and (4, 2, 1) in SHAPES and (2, 2) not in SHAPES
    assert [s for s in SHAPES if sum(s) == 8] == [
        (7, 1), (6, 2), (5, 3), (5, 2, 1), (4, 3, 1)
    ]


def _shape_id(shape):
    return "-".join(map(str, shape))


@pytest.mark.parametrize("shape", SLOW_AT_8, ids=_shape_id)
def test_row_reading_pair_affords_the_classical_specht_module(shape):
    system, psi, pp = _pair(shape)
    assert is_useful_subsystem(system, psi, pp)
    assert is_good_subsystem(system, psi, pp).is_good
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
        module = build_specht_module(system, psi, pp, field)
        dim_s, radical, dim_d = quotient_dimension(module)
        p = field.characteristic
        assert dim_s == hook_dimension(shape), p
        # distinct parts make lambda p-regular, so D^lambda is nonzero
        assert dim_d > 0, p
        # a p-core is alone in a block of defect zero: S^lambda is simple
        if p and is_p_core(shape, p):
            assert radical == 0, p
        if p == 0:
            # over Q the radical is 0 without being computed; the sum agrees
            assert (radical, dim_d) == (0, dim_s)
            assert quotient_dimension_by_sum(module) == (dim_s, 0, dim_s)
        if p == 0 and sum(shape) <= 8:
            # S^lambda is irreducible over Q (James 1978, LNM 682, ch. 4);
            # through n = 7 the fold over all of W agrees
            assert character_norm(module) == 1
            if sum(shape) <= 7:
                assert character_norm_by_fold(module) == 1


@pytest.mark.parametrize("shape", SLOW_AT_8, ids=_shape_id)
def test_dim_d_is_the_rank_of_the_standard_polytabloid_gram_matrix(shape):
    system, psi, pp = _pair(shape)
    for p in (2, 3, 5, 7):
        module = build_specht_module(system, psi, pp, PrimeField(p))
        assert quotient_dimension(module)[2] == james_dimension(shape, p), p


def test_known_modular_dimensions():
    # D^(3,2,1) of S_6 over F3 and D^(4,2,1) of S_7 over F2
    assert james_dimension((3, 2, 1), 3) == 4
    assert james_dimension((4, 2, 1), 2) == 20


def test_a_repeated_part_is_not_useful():
    # N(psi) also swaps the two equal rows, and W(psi') contains that swap
    system, psi, pp = _pair((2, 2))
    assert not is_useful_subsystem(system, psi, pp)

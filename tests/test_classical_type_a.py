"""The row-reading pairs of type A against the classical Specht modules.

For a partition lambda of n the pair (J, J') of the row-reading tableau
affords James's Specht module S^lambda of the symmetric group W(A_{n-1}).
Its expected invariants come from the hook lengths of lambda alone, so this
oracle shares no code with the construction.
"""

import pytest

from oracles import (
    distinct_part_partitions,
    hook_dimension,
    is_p_core,
    row_reading_pair,
)
from weylspecht import (
    build_root_system,
    build_specht_module,
    character_norm,
    closure_from_simples,
    generate_group,
    is_good_subsystem,
    is_useful_subsystem,
    quotient_dimension,
)
from weylspecht.exactlin import QQ, PrimeField

# distinct parts, so N(psi) is the row group; one part gives the trivial module
SHAPES = [s for n in range(3, 8) for s in distinct_part_partitions(n) if len(s) > 1]


def _pair(shape):
    system = build_root_system(f"A{sum(shape) - 1}")
    j, jp = row_reading_pair(shape)
    return system, closure_from_simples(system, j), closure_from_simples(system, jp)


def test_shapes_are_the_eleven_with_distinct_parts():
    assert len(SHAPES) == 11
    assert (3, 2, 1) in SHAPES and (4, 2, 1) in SHAPES and (2, 2) not in SHAPES


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_row_reading_pair_affords_the_classical_specht_module(shape):
    system, psi, pp = _pair(shape)
    group = generate_group(system)
    assert is_useful_subsystem(system, psi, pp, group=group)
    assert is_good_subsystem(system, psi, pp, group=group).is_good
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
        module = build_specht_module(system, psi, pp, field, group=group)
        dim_s, radical, dim_d = quotient_dimension(module)
        p = field.characteristic
        assert dim_s == hook_dimension(shape), p
        # distinct parts make lambda p-regular, so D^lambda is nonzero
        assert dim_d > 0, p
        # a p-core is alone in a block of defect zero: S^lambda is simple
        if p and is_p_core(shape, p):
            assert radical == 0, p
        if p == 0 and sum(shape) <= 6:
            assert character_norm(module) == 1


def test_a_repeated_part_is_not_useful():
    # N(psi) also swaps the two equal rows, and W(psi') contains that swap
    system, psi, pp = _pair((2, 2))
    assert not is_useful_subsystem(system, psi, pp)

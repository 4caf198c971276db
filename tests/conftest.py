import warnings
from dataclasses import dataclass

import pytest
from hypothesis import settings

from weylspecht import (
    build_root_system,
    build_specht_module,
    closure_from_simples,
    enumerate_tabloids,
    generate_group,
    parse_root,
)
from weylspecht.exactlin import QQ

# `pytest --hypothesis-profile=ci`: reproducible draws and five times the examples
settings.register_profile("ci", derandomize=True, max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def a3():
    return build_root_system("A3")


@pytest.fixture(scope="session")
def g2():
    return build_root_system("G2")


@pytest.fixture(scope="session")
def d4():
    return build_root_system("D4")


@pytest.fixture(scope="session")
def w_a3(a3):
    return generate_group(a3)


@pytest.fixture(scope="session")
def w_g2(g2):
    return generate_group(g2)


@pytest.fixture(scope="session")
def w_d4(d4):
    return generate_group(d4)


@dataclass(frozen=True)
class PairCase:
    """A fully built (system, group, psi, psi_prime, space, module) bundle."""

    system: object
    group: object
    psi: object
    psi_prime: object
    space: object
    module: object


def _make_case(system, group, j_texts, jp_texts):
    psi = closure_from_simples(system, [parse_root(system, t) for t in j_texts])
    psi_prime = closure_from_simples(system, [parse_root(system, t) for t in jp_texts])
    space = enumerate_tabloids(system, psi, group, psi_prime)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        module = build_specht_module(system, psi, psi_prime, QQ, group=group)
    return PairCase(
        system=system,
        group=group,
        psi=psi,
        psi_prime=psi_prime,
        space=space,
        module=module,
    )


@pytest.fixture(scope="session")
def case_a3(a3, w_a3):
    # 2A1 rows with a single column root
    return _make_case(a3, w_a3, ("100", "001"), ("110",))


@pytest.fixture(scope="session")
def case_g2(g2, w_g2):
    # A1 rows against the long-root A2; the module collapses to zero
    return _make_case(g2, w_g2, ("10",), ("01", "31"))


@pytest.fixture(scope="session")
def case_d4_rank3(d4, w_d4):
    # A3 rows with one column root; affords a 3-dimensional module
    return _make_case(d4, w_d4, ("1000", "0100", "0001"), ("1110",))


@pytest.fixture(scope="session")
def case_d4_deg6(d4, w_d4):
    # A2 rows against an A2 column system; affords a 6-dimensional module
    return _make_case(d4, w_d4, ("1000", "0100"), ("0001", "0110"))

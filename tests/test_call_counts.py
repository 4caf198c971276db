"""One command computes each result of the pair once.

Calls are counted with cProfile, keyed by the function's code object, so a
call through any ``from .x import y`` binding is counted too.
"""

from __future__ import annotations

import contextlib
import cProfile
import io

import pytest

from weylspecht import cli, is_good_subsystem
from weylspecht.specht import enumerate_tabloids, polytabloid
from weylspecht.subsystem import normalizer
from weylspecht.weyl import subgroup_generated


def _call_counts(fn, *args):
    prof = cProfile.Profile()
    prof.runcall(fn, *args)
    counts = {}
    for entry in prof.getstats():
        counts[entry.code] = counts.get(entry.code, 0) + entry.callcount
    return lambda f: counts.get(f.__code__, 0)


D4_SPECHT = [
    "specht", "--type", "D4", "--J", "1000,0100,0001", "--Jp", "1110",
    "--check", "useful,good",
]


def test_specht_command_builds_the_pair_once():
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT)
    assert calls(normalizer) == 1
    assert calls(enumerate_tabloids) == 1
    assert calls(subgroup_generated) <= 3


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_specht_command_computes_one_kappa_sum(field):
    # e_{J,J'} once; over F_p also the integer base that goodness reads
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT + ["--field", field])
    assert calls(polytabloid) <= 2


def test_standalone_goodness_scans_the_normalizer_once(case_d4_rank3):
    c = case_d4_rank3
    calls = _call_counts(is_good_subsystem, c.system, c.psi, c.psi_prime, c.group)
    assert calls(normalizer) == 1

"""One command computes each result of the pair once.

Calls are counted with cProfile, keyed by the function's code object, so a
call through any ``from .x import y`` binding is counted too.
"""

from __future__ import annotations

import contextlib
import cProfile
import io

import pytest

from weylspecht import cli, is_good_subsystem, is_useful_subsystem, submodule_theorem_probe
from weylspecht.specht import (
    TabloidSpace,
    _permuted,
    act_vector,
    enumerate_tabloids,
    polytabloid,
)
from weylspecht.subsystem import distinguished_reps, normalizer
from weylspecht.weyl import GeneratedGroup, compose, subgroup_generated


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
    # W is scanned by the normalizer sweep and by the generator listing's D_psi'
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT)
    assert calls(GeneratedGroup.__iter__) == 2
    assert calls(normalizer) == 1
    assert calls(enumerate_tabloids) == 1
    assert calls(subgroup_generated) <= 3


A5_TABLOIDS = ["tabloids", "--type", "A5", "--J", "10000,01000,00010"]


def test_tabloids_command_scans_the_group_once():
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, A5_TABLOIDS)
    assert calls(GeneratedGroup.__iter__) == 1


@pytest.mark.parametrize(
    "argv", [A5_TABLOIDS, D4_SPECHT + ["--char", "1 3 2"]], ids=["A5-tabloids", "D4-specht"]
)
def test_commands_compose_no_group_elements(argv):
    # the closures and W scans run on index tuples, not on GroupElement products
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, argv)
    assert calls(compose) == 0


def test_zero_module_skips_the_generator_scan():
    # the G2 pair affords the zero module; only the generator listing reads D_psi'
    argv = ["specht", "--type", "G2", "--J", "10", "--Jp", "01,31"]
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, argv)
    assert calls(distinguished_reps) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT)
    assert calls(distinguished_reps) == 1


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_specht_command_computes_one_kappa_sum(field):
    # e_{J,J'} once; over F_p also the integer base that goodness reads
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT + ["--field", field])
    assert calls(polytabloid) <= 2


def test_standalone_goodness_scans_the_normalizer_once(case_d4_rank3):
    c = case_d4_rank3
    calls = _call_counts(is_good_subsystem, c.system, c.psi, c.psi_prime, c.group)
    assert calls(GeneratedGroup.__iter__) == 1
    assert calls(normalizer) == 1


def test_standalone_usefulness_scans_the_group_once(case_d4_rank3):
    c = case_d4_rank3
    calls = _call_counts(is_useful_subsystem, c.system, c.psi, c.psi_prime, c.group)
    assert calls(GeneratedGroup.__iter__) == 1
    assert calls(enumerate_tabloids) == 1


def test_probe_trial_spins_instead_of_scanning_the_group(case_d4_deg6):
    # one image per simple reflection and spanning vector, against |W| = 192
    # translates for the orbit span
    module = case_d4_deg6.module
    space = module.space
    calls = _call_counts(submodule_theorem_probe, module, 1)
    images = calls(act_vector) + calls(TabloidSpace.index_action) + calls(_permuted)
    assert 0 < images <= space.system.rank * len(space) == 4 * 16

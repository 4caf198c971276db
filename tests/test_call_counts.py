"""One command computes each result of the pair once.

Calls are counted with cProfile, keyed by the function's code object, so a
call through any ``from .x import y`` binding is counted too.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import random
import warnings

import pytest

from oracles import benchmark_pair_module, sparse_probe_vector
from weylspecht import (
    build_specht_module,
    cli,
    is_good_subsystem,
    is_useful_subsystem,
    submodule_theorem_probe,
    vanishing_obstruction,
    verify,
)
from weylspecht.exactlin import QQ, PrimeField, RationalField, contains, form_complement
from weylspecht.specht import (
    TabloidSpace,
    _permuted,
    act_vector,
    apply_kappa,
    cyclic_submodule,
    enumerate_tabloids,
    polytabloid,
)
from weylspecht.subsystem import distinguished_reps, normalizer
from weylspecht.weyl import GeneratedGroup, compose, generate_group, subgroup_generated


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
    # W is generated and scanned only by the generator listing's D_psi'; the
    # tabloids are the orbit of psi, and |N(psi)| is |W| over their count
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT)
    assert calls(generate_group) == 1
    assert calls(GeneratedGroup.__iter__) == 1
    assert calls(normalizer) == 0
    assert calls(enumerate_tabloids) == 1
    # W(psi') only: the complement half of usefulness closes no group
    assert calls(subgroup_generated) == 1


A5_TABLOIDS = ["tabloids", "--type", "A5", "--J", "10000,01000,00010"]


def test_tabloids_command_never_scans_the_group():
    # |W| comes from the degrees and the tabloids from the orbit of psi
    a7 = ["tabloids", "--type", "A7", "--J", "1000000"]
    for argv in (A5_TABLOIDS, A5_TABLOIDS + ["--json"], a7, a7 + ["--json"]):
        with contextlib.redirect_stdout(io.StringIO()):
            calls = _call_counts(cli.main, argv)
        assert calls(generate_group) == 0
        assert calls(GeneratedGroup.__iter__) == 0
        assert calls(normalizer) == 0


@pytest.mark.parametrize(
    "argv", [A5_TABLOIDS, D4_SPECHT + ["--char", "1 3 2"]], ids=["A5-tabloids", "D4-specht"]
)
def test_commands_compose_no_group_elements(argv):
    # the closures and W scans run on index tuples, not on GroupElement products
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, argv)
    assert calls(compose) == 0


def test_zero_module_skips_the_generator_scan():
    # the G2 pair affords the zero module; only the generator listing reads
    # D_psi', and so W; the witness words and characters need no W either
    argv = ["specht", "--type", "G2", "--J", "10", "--Jp", "01,31"]
    checked = argv + ["--check", "useful,good", "--char", "1 2"]
    for run in (argv, checked, checked + ["--json"]):
        with contextlib.redirect_stdout(io.StringIO()):
            calls = _call_counts(cli.main, run)
        assert calls(generate_group) == 0
        assert calls(distinguished_reps) == 0
        assert calls(GeneratedGroup.__iter__) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT)
    assert calls(distinguished_reps) == 1


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_specht_command_computes_one_kappa_sum(field):
    # the integer e_{J,J'} is summed once and read by the module and goodness
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT + ["--field", field])
    assert calls(apply_kappa) == 1


def test_standalone_goodness_never_scans_the_group(case_d4_rank3):
    c = case_d4_rank3
    for group in (c.group, None):
        calls = _call_counts(is_good_subsystem, c.system, c.psi, c.psi_prime, group)
        assert calls(generate_group) == 0
        assert calls(GeneratedGroup.__iter__) == 0
        assert calls(normalizer) == 0


def test_standalone_build_never_generates_the_group(case_d4_rank3, case_g2):
    # the basis is spun from e_{J,J'}; only `generators` reads W
    for c in (case_d4_rank3, case_g2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            calls = _call_counts(build_specht_module, c.system, c.psi, c.psi_prime, QQ)
        assert calls(generate_group) == 0


def test_tabloid_orbit_never_scans_the_group(case_d4_rank3):
    c = case_d4_rank3
    for group in (c.group, None):
        calls = _call_counts(enumerate_tabloids, c.system, c.psi, group, c.psi_prime)
        assert calls(generate_group) == 0
        assert calls(GeneratedGroup.__iter__) == 0
        assert calls(GeneratedGroup.word_of) == 0


def test_standalone_usefulness_never_scans_the_group(case_d4_rank3):
    # N(psi) meet W(psi') is the stabilizer of psi inside W(psi')
    c = case_d4_rank3
    calls = _call_counts(is_useful_subsystem, c.system, c.psi, c.psi_prime, c.group)
    assert calls(GeneratedGroup.__iter__) == 0
    assert calls(enumerate_tabloids) == 0
    assert calls(normalizer) == 0


def test_standalone_obstruction_never_scans_the_group(case_g2, case_d4_rank3):
    # N(psi) meet W(psi') is the stabilizer of psi inside W(psi'), ordered
    # by (length, word) without W, so no group is generated either
    for c in (case_g2, case_d4_rank3):
        for group in (c.group, None):
            args = (c.system, c.psi, c.psi_prime, group)
            calls = _call_counts(vanishing_obstruction, *args)
            assert calls(GeneratedGroup.__iter__) == 0
            assert calls(GeneratedGroup.position) == 0
            assert calls(normalizer) == 0
            assert calls(generate_group) == 0


def test_probe_trial_asks_one_membership_and_no_complement(case_d4_deg6):
    # S lies in U exactly when e_{J,J'} does, and S-perp is never built
    calls = _call_counts(submodule_theorem_probe, case_d4_deg6.module, 1)
    assert calls(contains) == 1
    assert calls(form_complement) == 0


def test_specht_report_folds_translates_up_to_the_dimension(case_d4_rank3):
    # the listing stops at the dim-th independent translate of e_{J,J'}
    c = case_d4_rank3
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT)
    folded = calls(act_vector) - calls(polytabloid)
    dreps = distinguished_reps(c.system, c.psi_prime, c.group)
    assert c.module.dimension <= folded < len(dreps)


def test_probe_trial_spins_instead_of_scanning_the_group(case_d4_deg6):
    # one image per simple reflection and spanning vector, against |W| = 192
    # translates for the orbit span
    module = case_d4_deg6.module
    space = module.space
    calls = _call_counts(submodule_theorem_probe, module, 1)
    images = calls(act_vector) + calls(TabloidSpace.index_action) + calls(_permuted)
    assert 0 < images <= space.system.rank * len(space) == 4 * 16


def _build_and_probe(case, field):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        module = build_specht_module(
            case.system, case.psi, case.psi_prime, field, group=case.group
        )
    submodule_theorem_probe(module, 1)


def _f4_module_and_orthogonality_trial(field):
    # the F4 module, and a sparse vector spinning a proper U that misses
    # e_{J,J'}, so the probe reaches its orthogonality test
    module = benchmark_pair_module("F4", field)
    dim = len(module.space)
    for t in range(200):
        v = sparse_probe_vector(field, dim, random.Random(f"F4/{t}"))
        u = cyclic_submodule(module.space, field, v)
        if u.rank < dim and not contains(u, module.e_vec):
            return module, v
    raise AssertionError("no sparse vector spins a proper U missing e")


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_elimination_calls_no_field_method_per_entry(case_d4_deg6, field, monkeypatch):
    # the build and the probe eliminate with inlined integer arithmetic, and
    # the probe pairs U with e_{J,J'} inline
    counted = [_call_counts(_build_and_probe, case_d4_deg6, field)]
    module, v = _f4_module_and_orthogonality_trial(field)
    monkeypatch.setattr(verify, "probe_vector", lambda *_: v)
    counted.append(_call_counts(submodule_theorem_probe, module, 1))
    for calls in counted:
        for method in (RationalField.add, RationalField.mul, PrimeField.add, PrimeField.mul):
            assert calls(method) == 0, method.__qualname__

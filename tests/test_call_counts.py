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
from fractions import Fraction

import pytest

from oracles import benchmark_pair, benchmark_pair_module, sparse_probe_vector
from weylspecht import (
    build_specht_module,
    character_norm,
    character_value,
    cli,
    is_good_subsystem,
    is_useful_subsystem,
    submodule_theorem_probe,
    subsystem,
    vanishing_obstruction,
    verify,
)
from weylspecht.exactlin import (
    QQ,
    PrimeField,
    RationalField,
    SparseVector,
    contains,
    echelon_basis,
    echelon_insert,
    in_echelon_span,
    row_reduce,
)
from weylspecht.rootsys import parse_root
from weylspecht.specht import (
    TabloidSpace,
    _permuted,
    act_vector,
    apply_kappa,
    cyclic_submodule,
    enumerate_tabloids,
    matrix_of,
    quotient_dimension,
)
from weylspecht.subsystem import distinguished_reps, normalizer
from weylspecht.weyl import (
    GroupElement,
    compose,
    elements_of,
    fold_walk,
    generate_group,
    reflection_in,
    simple_reflection,
    subgroup_generated,
)


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


A6_SPECHT = [
    "specht", "--type", "A6", "--J", "100000,010000,000100,000010",
    "--Jp", "111000,011100", "--check", "useful,good",
]


def test_specht_command_builds_the_pair_once():
    # the tabloids and the generator listing's D_psi' are coset walks, and
    # |N(psi)| is |W| over the tabloid count, so W is never generated
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT)
    assert calls(generate_group) == 0
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
    # D_psi'; the witness words and characters need no W either
    argv = ["specht", "--type", "G2", "--J", "10", "--Jp", "01,31"]
    checked = argv + ["--check", "useful,good", "--char", "1 2"]
    for run in (argv, checked, checked + ["--json"]):
        with contextlib.redirect_stdout(io.StringIO()):
            calls = _call_counts(cli.main, run)
        assert calls(generate_group) == 0
        assert calls(distinguished_reps) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT)
    assert calls(distinguished_reps) == 1


def test_a6_listing_stops_the_distinguished_walk(monkeypatch):
    # D_psi' has 1260 points, and the listing's last independent translate
    # is the 557th: the walk yields no point past it
    walk = subsystem.coset_walk
    yielded = []

    def counted(*args, **kwargs):
        for step in walk(*args, **kwargs):
            yielded.append(step)
            yield step

    monkeypatch.setattr(subsystem, "coset_walk", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(A6_SPECHT)
    assert out.getvalue().count(" | ") == 63  # dim S translates listed
    assert len(yielded) == 557
    system, _, pp = benchmark_pair("A6")
    assert len(tuple(distinguished_reps(system, pp))) == 1260


def test_column_reflections_are_built_once():
    # the W(psi') walk builds the |J'| = 2 reflections, and kappa's tables
    # read them off that walk
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, A6_SPECHT)
    assert calls(reflection_in) == 2


def test_a6_text_report_never_generates_the_group():
    # the generator listing walks D_psi' instead of scanning W
    with contextlib.redirect_stdout(io.StringIO()) as out:
        calls = _call_counts(cli.main, A6_SPECHT)
    assert "independent generators:" in out.getvalue()
    assert calls(generate_group) == 0


def test_a6_text_report_builds_no_element_per_listed_translate():
    # the generator listing reads D_psi' as words and steps translates from
    # their parents, so the text report builds the elements the JSON report
    # builds and none more
    built = []
    for argv in (A6_SPECHT, A6_SPECHT + ["--json"]):
        with contextlib.redirect_stdout(io.StringIO()):
            calls = _call_counts(cli.main, argv)
        built.append(calls(GroupElement.__init__))
    assert built[0] == built[1]


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_specht_command_computes_one_kappa_sum(field):
    # the integer e_{J,J'} is summed once and read by the module and goodness
    with contextlib.redirect_stdout(io.StringIO()):
        calls = _call_counts(cli.main, D4_SPECHT + ["--field", field])
    assert calls(apply_kappa) == 1


def test_standalone_goodness_never_scans_the_group(case_d4_rank3):
    c = case_d4_rank3
    calls = _call_counts(is_good_subsystem, c.system, c.psi, c.psi_prime)
    assert calls(generate_group) == 0
    assert calls(normalizer) == 0


def _generators_of_build(c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_specht_module(c.system, c.psi, c.psi_prime, QQ).generators


def test_standalone_build_never_generates_the_group(case_d4_rank3, case_g2):
    # the basis is spun from e_{J,J'}, and `generators` walks D_psi'
    for c in (case_d4_rank3, case_g2):
        calls = _call_counts(_generators_of_build, c)
        assert calls(generate_group) == 0
        assert calls(distinguished_reps) == 1


def test_tabloid_orbit_never_scans_the_group(case_d4_rank3):
    c = case_d4_rank3
    for group in (c.group, None):
        calls = _call_counts(enumerate_tabloids, c.system, c.psi, group, c.psi_prime)
        assert calls(generate_group) == 0


def test_standalone_usefulness_never_scans_the_group(case_d4_rank3):
    # N(psi) meet W(psi') is the stabilizer of psi inside W(psi')
    c = case_d4_rank3
    calls = _call_counts(is_useful_subsystem, c.system, c.psi, c.psi_prime)
    assert calls(generate_group) == 0
    assert calls(enumerate_tabloids) == 0
    assert calls(normalizer) == 0


def test_standalone_obstruction_never_scans_the_group(case_g2, case_d4_rank3):
    # N(psi) meet W(psi') is the stabilizer of psi inside W(psi'), ordered
    # by (length, word) without W, so no group is generated either
    for c in (case_g2, case_d4_rank3):
        calls = _call_counts(vanishing_obstruction, c.system, c.psi, c.psi_prime)
        assert calls(normalizer) == 0
        assert calls(generate_group) == 0


def test_probe_trial_asks_one_membership_and_no_complement(case_d4_deg6):
    # S lies in U exactly when e_{J,J'} does, and S-perp is never built; the
    # membership is asked of the kappa images' working rows, and U's
    # canonical basis is never built
    calls = _call_counts(submodule_theorem_probe, case_d4_deg6.module, 1)
    assert calls(in_echelon_span) == 1
    assert calls(contains) == 0
    assert calls(echelon_basis) == 0


def test_probe_trial_stops_once_kappa_images_hold_e():
    # A5 over F_(2^31-1), seed 1729, trial 0: kappa M has dimension 8 of 60;
    # each of the first 8 vectors entering U adds a kappa row, the 8th puts
    # e_{J,J'} in their span, and the spin stops after 8 of U's 60 rows
    module = benchmark_pair_module("A5", PrimeField(2**31 - 1))
    space, field = module.space, module.field
    units = (SparseVector(len(space), {i: field.one}) for i in range(len(space)))
    kappa_m = row_reduce(field, (apply_kappa(space, field, u) for u in units), dim=len(space))
    assert (kappa_m.rank, len(space)) == (8, 60)
    calls = _call_counts(submodule_theorem_probe, module, 1)
    assert calls(apply_kappa) == kappa_m.rank
    assert calls(in_echelon_span) == kappa_m.rank
    assert calls(_permuted) == 8
    # 9 into U (the probe vector and 8 images, 7 of them new), 8 kappa rows
    assert calls(echelon_insert) == 9 + 8
    assert calls(echelon_basis) == 0


def test_probe_trial_on_a_certified_pair_applies_kappa_at_most_twice(case_d4_deg6):
    # kappa M is spanned by e_{J,J'}, so the first nonzero kappa image holds it
    calls = _call_counts(submodule_theorem_probe, case_d4_deg6.module, 1)
    assert 0 < calls(apply_kappa) <= 2


def test_specht_report_lists_translates_up_to_the_dimension(case_d4_rank3):
    # the listing stops at the dim-th independent translate of e_{J,J'};
    # each translate is tested for independence once, and each but e_{J,J'}
    # is one table step from its parent's, with no word folded
    c = case_d4_rank3
    calls = _call_counts(cli._independent_generators, c.module)
    listed = calls(echelon_insert)
    dreps = tuple(distinguished_reps(c.system, c.psi_prime))
    assert c.module.dimension <= listed < len(dreps)
    assert calls(_permuted) == listed - 1
    assert calls(TabloidSpace.index_action) == 0
    assert calls(act_vector) == 0


def test_base_polytabloid_sums_ints():
    # kappa is seeded with the int 1, so the 5040 signed terms of W(psi') on
    # the A7 pair are int additions and Q is reached once per entry; the
    # forward operators of Fraction share the code of __add__
    system, psi, pp = benchmark_pair("A7")
    space = enumerate_tabloids(system, psi, psi_prime=pp)
    calls = _call_counts(lambda: space.base_polytabloid)
    ops = calls(Fraction.__add__) + calls(Fraction.__radd__) + calls(Fraction.__neg__)
    assert ops <= len(space)


def test_radical_over_q_is_not_computed():
    # the delta form is positive definite over Q, so S meets S-perp in 0
    module = benchmark_pair_module("A6", QQ)
    calls = _call_counts(quotient_dimension, module)
    assert calls(row_reduce) == 0


@pytest.mark.parametrize("name", ["D4-6", "F4"])
def test_radical_over_fp_is_one_rank(name):
    # one Gram matrix is ranked, on the smaller side, by counting the rows
    # that enter an echelon: C's 6 rows against 10 columns on D4-6, its 1
    # column against 11 rows on F4; S-perp and the canonical basis of the
    # Gram rows are never built
    module = benchmark_pair_module(name, PrimeField(3))
    calls = _call_counts(quotient_dimension, module)
    assert calls(row_reduce) == 0
    assert calls(echelon_basis) == 0
    k, n = module.basis.rank, module.basis.dim
    assert calls(echelon_insert) == min(k, n - k)


def test_matrix_in_a_given_basis_is_one_reduction(case_d4_deg6):
    # the span check and one reduction of [P | Q], whatever k is (6 here)
    module = case_d4_deg6.module
    bl = list(reversed(module.basis.rows))
    w = simple_reflection(module.space.system, 1)
    calls = _call_counts(lambda: matrix_of(module, w, basis_vectors=bl))
    assert module.dimension == 6
    assert calls(row_reduce) == 2


def test_an_element_folds_its_descent_word(case_d4_deg6):
    # once the simple reflections' tables are read off the keys, an element
    # acts through its word and reads no key
    module = case_d4_deg6.module
    system = module.space.system
    assert len(module.space._tables) == system.rank
    for i in range(1, system.rank + 1):
        calls = _call_counts(matrix_of, module, simple_reflection(system, i))
        assert calls(TabloidSpace._table) == 0
        assert calls(TabloidSpace.index_action) == 1


def test_character_norm_builds_no_element(d4):
    # the norm folds D_psi' depth first: it reads no element of a given W,
    # and without one it neither generates nor reads W
    psi, pp = (
        subsystem.closure_from_simples(d4, [parse_root(d4, t) for t in texts])
        for texts in (("1000", "0100", "0001"), ("1110",))
    )
    for group in (generate_group(d4), None):
        module = build_specht_module(d4, psi, pp, QQ, group=group)
        calls = _call_counts(character_norm, module)
        assert calls(elements_of) == 0
        assert calls(fold_walk) == 0
        assert calls(GroupElement.__init__) == 0
        assert calls(generate_group) == 0
    assert "group" not in vars(module.space)


def test_character_norm_folds_no_word(case_d4_rank3, case_d4_deg6):
    # each element's tabloid permutation is one step from its parent's
    for c in (case_d4_rank3, case_d4_deg6):
        calls = _call_counts(character_norm, c.module)
        assert calls(TabloidSpace.index_action) == 0
        assert calls(character_value) == 0


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
    # the build, the probe and the radical eliminate with inlined integer
    # arithmetic, and the probe pairs U with e_{J,J'} inline
    counted = [_call_counts(_build_and_probe, case_d4_deg6, field)]
    module, v = _f4_module_and_orthogonality_trial(field)
    monkeypatch.setattr(verify, "probe_vector", lambda *_: v)
    counted.append(_call_counts(submodule_theorem_probe, module, 1))
    counted.append(_call_counts(quotient_dimension, module))
    for calls in counted:
        for method in (RationalField.add, RationalField.mul, PrimeField.add, PrimeField.mul):
            assert calls(method) == 0, method.__qualname__

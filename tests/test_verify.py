import random
import warnings

import pytest

from oracles import (
    benchmark_pair_module,
    coefficient_law_violations,
    col_stabilizer_by_filter,
    disjoint_pairs,
    form_complement,
    intersect,
    load_workloads,
    normalizer_by_definition,
    obstruction_by_scan,
    probe_violation_by_complement,
    sparse_probe_vector,
    useful_subsystem_by_closures,
    useful_system_by_closures,
)
from weylspecht import (
    build_root_system,
    build_specht_module,
    character_norm,
    closure_from_simples,
    enumerate_tabloids,
    generate_group,
    is_good_subsystem,
    is_useful_subsystem,
    is_useful_system,
    polytabloid,
    submodule_theorem_probe,
    vanishing_obstruction,
    verify,
)
from weylspecht.exactlin import QQ, PrimeField, SparseVector, contains, row_reduce
from weylspecht.rootsys import parse_root
from weylspecht.specht import act_vector, cyclic_submodule, quotient_dimension, spin
from weylspecht.verify import DEFAULT_PROBE_SEED, obstruction_from_space, probe_vector
from weylspecht.weyl import (
    compose,
    identity,
    sign,
    subgroup_generated,
    word_order,
    word_to_element,
)


def roots_of(system, *texts):
    return [parse_root(system, t) for t in texts]


# --------------------------------------------------------------------------
# usefulness predicates


def test_useful_system_cases(case_a3, case_g2):
    assert is_useful_system(case_a3.system, case_a3.psi, case_a3.psi_prime)
    # the G2 pair is a useful system even though it fails the stronger predicate
    assert is_useful_system(case_g2.system, case_g2.psi, case_g2.psi_prime)


def test_useful_system_rejects_overlap(case_a3):
    with pytest.raises(ValueError):
        is_useful_system(case_a3.system, case_a3.psi, case_a3.psi)
    with pytest.raises(ValueError):
        is_useful_subsystem(case_a3.system, case_a3.psi, case_a3.psi)


def _b3_rows_with_c3_columns():
    # the C3 closure of {010, 001} holds 021, which is not a root of B3
    b3, c3 = build_root_system("B3"), build_root_system("C3")
    psi = closure_from_simples(b3, roots_of(b3, "100"))
    foreign = closure_from_simples(c3, roots_of(c3, "010", "001"))
    assert (0, 2, 1) in foreign.roots and (0, 2, 1) not in b3.index
    return b3, generate_group(b3), psi, foreign


def test_entry_points_reject_a_foreign_column_system():
    b3, group, psi, foreign = _b3_rows_with_c3_columns()
    calls = [
        lambda: enumerate_tabloids(b3, psi, group, foreign),
        lambda: is_useful_system(b3, psi, foreign),
        lambda: is_useful_subsystem(b3, psi, foreign),
        lambda: is_good_subsystem(b3, psi, foreign),
        lambda: vanishing_obstruction(b3, psi, foreign),
        lambda: build_specht_module(b3, psi, foreign, QQ, group=group),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_useful_system_rejects_foreign_rows():
    b3, _, psi, foreign = _b3_rows_with_c3_columns()
    with pytest.raises(ValueError):
        is_useful_system(b3, foreign, psi)


def test_useful_subsystem_cases(case_a3, case_g2, case_d4_rank3):
    assert is_useful_subsystem(case_a3.system, case_a3.psi, case_a3.psi_prime)
    assert not is_useful_subsystem(case_g2.system, case_g2.psi, case_g2.psi_prime)
    c = case_d4_rank3
    assert is_useful_subsystem(c.system, c.psi, c.psi_prime)


def test_g2_intersections(case_g2):
    system, group = case_g2.system, case_g2.group
    w_psi = {w.perm for w in subgroup_generated(system, case_g2.psi.simples)}
    w_pp = {w.perm for w in subgroup_generated(system, case_g2.psi_prime.simples)}
    assert w_psi & w_pp == {identity(system).perm}
    n_psi = {w.perm for w in case_g2.space.n_psi}
    assert len(n_psi & w_pp) > 1


# --------------------------------------------------------------------------
# usefulness, the meet N(psi) ∩ W(psi') and the witness, against closures


def _closure_verdicts(system, group, psi, pp, n_psi):
    """Compare one disjoint pair with the closure oracles; returns whether
    only the complement half rejects it."""
    tag = f"{system.label} J={psi.simples} J'={pp.simples}"
    useful = useful_subsystem_by_closures(system, psi, pp, n_psi)
    space = enumerate_tabloids(system, psi, group, pp)
    assert is_useful_subsystem(system, psi, pp) == useful, tag
    assert space.useful == useful, tag
    assert is_useful_system(system, psi, pp) == useful_system_by_closures(system, psi, pp), tag
    meet = col_stabilizer_by_filter(system, n_psi, pp)
    # the space keeps the meet in the walk order of W(psi'), the oracle in W's
    assert tuple(sorted(space.col_stabilizer, key=word_order(system))) == meet, tag
    # both entry points find the scan's witness
    witness = obstruction_by_scan(system, n_psi, pp)
    assert obstruction_from_space(space) == witness, tag
    assert vanishing_obstruction(system, psi, pp) == witness, tag
    return len(meet) == 1 and not useful


@pytest.mark.parametrize("label", ["A3", "G2", "B3", "C3", "D4"])
def test_usefulness_matches_closures_on_every_pair(label):
    system = build_root_system(label)
    group = generate_group(system)
    n_psi = {}
    complement_only = 0
    for psi, pp in disjoint_pairs(system, max_size=2):
        if psi.roots not in n_psi:
            n_psi[psi.roots] = normalizer_by_definition(system, psi, group)[0]
        complement_only += _closure_verdicts(system, group, psi, pp, n_psi[psi.roots])
    # the corpus exercises the complement half on its own
    assert complement_only > 0


PAIRS = load_workloads().PAIRS  # name: (ambient, J, J')


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if int(PAIRS[n][0][1:]) > 4 else n
        for n in sorted(PAIRS)
    ],
)
def test_usefulness_matches_closures_on_benchmark_pairs(name):
    ambient, j_text, jp_text = PAIRS[name]
    system = build_root_system(ambient)
    group = generate_group(system)
    psi = closure_from_simples(system, roots_of(system, *j_text.split(",")))
    pp = closure_from_simples(system, roots_of(system, *jp_text.split(",")))
    n_psi = normalizer_by_definition(system, psi, group)[0]
    _closure_verdicts(system, group, psi, pp, n_psi)


# --------------------------------------------------------------------------
# the vanishing obstruction


def test_obstruction_found_in_g2(case_g2):
    system = case_g2.system
    w = vanishing_obstruction(system, case_g2.psi, case_g2.psi_prime)
    assert w is not None
    assert w == word_to_element(system, (2, 1, 2, 1, 2))
    assert compose(w, w) == identity(system)
    assert sign(system, w) == -1
    assert polytabloid(case_g2.space, QQ, identity(system)).is_zero()


def test_no_obstruction_in_d4(case_d4_rank3):
    c = case_d4_rank3
    assert vanishing_obstruction(c.system, c.psi, c.psi_prime) is None


def test_obstruction_rejects_overlap(case_a3):
    c = case_a3
    with pytest.raises(ValueError, match="psi_prime must be contained"):
        vanishing_obstruction(c.system, c.psi, c.psi)


def test_no_obstruction_with_empty_columns(a3):
    psi = closure_from_simples(a3, roots_of(a3, "100", "001"))
    empty = closure_from_simples(a3, [])
    assert vanishing_obstruction(a3, psi, empty) is None


# --------------------------------------------------------------------------
# goodness


def test_good_d4_pair(case_d4_rank3):
    c = case_d4_rank3
    res = is_good_subsystem(c.system, c.psi, c.psi_prime)
    assert res.is_good and bool(res)
    assert res.witnesses == ()


def test_good_a3_pair_by_direct_scan(case_a3):
    # scan the expansion by hand: e = t0 - t2 and only t0, t2 avoid the columns
    space = case_a3.space
    e_vec = polytabloid(space, QQ, identity(case_a3.system))
    assert sorted(e_vec.entries) == [0, 2]
    disjoint = [
        i for i, t in enumerate(space) if not (t.key & case_a3.psi_prime.roots)
    ]
    assert disjoint == [0, 2]
    res = is_good_subsystem(case_a3.system, case_a3.psi, case_a3.psi_prime)
    assert res.is_good


def test_not_useful_pairs_are_not_good(case_g2):
    res = is_good_subsystem(case_g2.system, case_g2.psi, case_g2.psi_prime)
    assert not res.is_good
    assert res.reason == "not a useful sub-system"


def test_empty_columns_fail_goodness(a3):
    psi = closure_from_simples(a3, roots_of(a3, "100", "001"))
    empty = closure_from_simples(a3, [])
    res = is_good_subsystem(a3, psi, empty)
    assert not res.is_good
    assert len(res.witnesses) == 2  # every coset avoids the empty set; only t0 appears


# --------------------------------------------------------------------------
# the submodule dichotomy probe


def test_probe_on_the_module_generator(case_d4_rank3):
    report = submodule_theorem_probe(case_d4_rank3.module, trials=10, seed=7)
    assert report.ok
    assert report.trials == 10 and report.seed == 7


def test_probe_is_reproducible(case_d4_rank3):
    a = submodule_theorem_probe(case_d4_rank3.module, trials=5, seed=3)
    b = submodule_theorem_probe(case_d4_rank3.module, trials=5, seed=3)
    assert a == b


def test_probe_rejects_fewer_than_one_trial(case_d4_rank3):
    for trials in (0, -1):
        with pytest.raises(ValueError):
            submodule_theorem_probe(case_d4_rank3.module, trials=trials)


def test_self_generated_submodule_contains_module(case_d4_rank3):
    module = case_d4_rank3.module
    space = module.space
    e_vec = polytabloid(space, QQ, identity(case_d4_rank3.system))
    orbit = [act_vector(space, QQ, w, e_vec) for w in space.group]
    cyclic = row_reduce(QQ, orbit, dim=len(space))
    assert cyclic == module.basis


def test_zero_vector_lands_in_complement(case_d4_rank3):
    module = case_d4_rank3.module
    perp = form_complement(module.basis)
    assert contains(perp, SparseVector(len(module.space), {}))


@pytest.mark.slow
def test_probe_verdicts_match_the_whole_subspace_oracle(monkeypatch):
    # sparse vectors spin small submodules, which break the dichotomy on the
    # useful pairs that are not good; dense ones take the kappa exit, except
    # over F2, where some spin a proper U without e and end in the fallback.
    # The trials are compared one by one, and every early exit is checked
    # against the whole U.
    sparse, dense = 60, 2
    violations = exits = fallbacks = 0
    fields = (QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(2**31 - 1))
    for name in ("A3", "G2", "D4-3", "D4-6", "F4", "A5", "A6", "D6", "B6"):
        for field in fields:
            module = benchmark_pair_module(name, field)
            space = module.space
            dim = len(space)
            vectors = [
                sparse_probe_vector(field, dim, random.Random(f"{name}/{field!r}/{t}"))
                for t in range(sparse)
            ] + [probe_vector(field, dim, DEFAULT_PROBE_SEED, t) for t in range(dense)]
            expected = tuple(
                t for t, v in enumerate(vectors) if probe_violation_by_complement(module, v)
            )
            finished = []

            def recording_spin(*args):
                finished.append(False)
                yield from spin(*args)
                finished[-1] = True

            monkeypatch.setattr(verify, "probe_vector", lambda f, d, s, t: vectors[t])
            monkeypatch.setattr(verify, "spin", recording_spin)
            report = submodule_theorem_probe(module, trials=len(vectors))
            assert report.violations == expected, (name, field)
            # a zero module spins nothing: S = 0 lies in every U
            assert len(finished) == (0 if module.e_vec.is_zero() else len(vectors))
            for v, done in zip(vectors, finished):
                if done:
                    fallbacks += 1
                else:
                    exits += 1
                    assert contains(cyclic_submodule(space, field, v), module.e_vec)
            if name in ("A3", "D4-3", "D4-6"):  # good pairs: the theorem holds
                assert expected == ()
            if name in ("G2", "D6", "B6"):  # zero modules
                assert module.dimension == 0 and expected == ()
            violations += len(expected)
    assert violations > 0 and exits > 0 and fallbacks > 0


# --------------------------------------------------------------------------
# structural consequences across the corpus


def test_good_pairs_afford_norm_one_characters(a3, w_a3, g2, w_g2):
    checked = 0
    for system, group in ((a3, w_a3), (g2, w_g2)):
        for psi, pp in disjoint_pairs(system, max_size=2):
            res = is_good_subsystem(system, psi, pp)
            if not res.is_good:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                module = build_specht_module(system, psi, pp, QQ, group=group)
            if module.dimension:
                assert character_norm(module) == 1
                checked += 1
    assert checked > 0


def test_quotient_is_irreducible_or_zero(case_d4_rank3, d4, w_d4):
    # cyclic closure from every basis vector recovers the whole module,
    # modulo the radical, over Q and over F2
    fields = (QQ, PrimeField(2))
    psi, pp = case_d4_rank3.psi, case_d4_rank3.psi_prime
    for field in fields:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            module = build_specht_module(d4, psi, pp, field, group=w_d4)
        dims = quotient_dimension(module)
        if dims[2] == 0:
            continue
        radical = intersect(module.basis, form_complement(module.basis))
        space = module.space
        for row in module.basis.rows:
            if contains(radical, row):
                continue
            orbit = [act_vector(space, field, w, row) for w in space.group]
            closed = row_reduce(field, orbit + list(radical.rows), dim=len(space))
            for check in module.basis.rows:
                assert contains(closed, check)


def test_obstruction_forces_vanishing_over_corpus(a3, w_a3, g2, w_g2):
    from weylspecht.specht import enumerate_tabloids

    for system, group in ((a3, w_a3), (g2, w_g2)):
        for psi, pp in disjoint_pairs(system, max_size=2):
            w = vanishing_obstruction(system, psi, pp)
            if w is None:
                continue
            space = enumerate_tabloids(system, psi, group, pp)
            assert polytabloid(space, QQ, identity(system)).is_zero()


def test_coefficient_laws_on_showcase_pairs(case_a3, case_g2, case_d4_rank3):
    for case in (case_a3, case_g2, case_d4_rank3):
        assert (
            coefficient_law_violations(
                case.system, case.group, case.psi, case.psi_prime
            )
            == []
        )

"""End-to-end acceptance checks for the three showcase constructions and the
structural laws behind them. One test per criterion; each prints a PASS line
so that `pytest -v -s tests/test_acceptance.py` reads as a checklist. All
arithmetic is exact, so every comparison is exact equality.
"""

import random
import warnings
from fractions import Fraction

from oracles import (
    candidate_subsystems,
    coefficient_law_violations,
    disjoint_pairs,
    listed,
    normalizer_of,
    restricted_reflections_by_fixed_space,
    semidirect_violations,
    weyl_group,
)
from weylspecht import (
    build_root_system,
    build_specht_module,
    character_norm,
    character_value,
    generate_group,
    is_good_subsystem,
    is_useful_subsystem,
    matrix_of,
    polytabloid,
    submodule_theorem_probe,
    subgroup_generated,
)
from weylspecht.exactlin import QQ, PrimeField, row_reduce
from weylspecht.specht import format_tabloid
from weylspecht.weyl import compose, identity, sign, word_to_element


def _report(name):
    print(f"[acceptance] {name}: PASS")


def test_01_a3_tabloid_family(case_a3):
    space = case_a3.space
    assert [format_tabloid(space, t) for t in space] == [
        "{100,001;110}",
        "{110,011;100}",
        "{010,111;-100}",
    ]
    assert [t.rep_word for t in space] == [(), (2,), (1, 2)]
    assert is_useful_subsystem(case_a3.system, case_a3.psi, case_a3.psi_prime)
    _report("A3 tabloid family with representatives e, t2, t1t2")


def test_02_g2_pair_collapses(case_g2):
    system, group = case_g2.system, case_g2.group
    assert len(case_g2.space.col_group) == 6

    n_psi = {w.perm for w in normalizer_of(case_g2.space)}
    expected = {
        word_to_element(system, w).perm
        for w in ((), (1,), (2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1))
    }
    assert n_psi == expected and len(n_psi) == 4

    w_psi = {w.perm for w in listed(subgroup_generated(system, case_g2.psi.simples))}
    w_pp = {w.perm for w in listed(subgroup_generated(system, case_g2.psi_prime.simples))}
    assert w_psi & w_pp == {identity(system).perm}
    assert len(n_psi & w_pp) > 1

    assert polytabloid(case_g2.space, QQ, identity(system)).is_zero()
    _report("G2 pair: order-6 column group, order-4 stabilizer, zero polytabloid")


def test_03_d4_three_dimensional_module(case_d4_rank3):
    system = case_d4_rank3.system
    psi, pp = case_d4_rank3.psi, case_d4_rank3.psi_prime
    space, module = case_d4_rank3.space, case_d4_rank3.module

    # stabilizer of order 48, generated by the reflections of its action on
    # the span of psi (the ambient root reflections alone only give W(psi))
    n_psi = normalizer_of(space)
    assert len(n_psi) == 48
    refl = restricted_reflections_by_fixed_space(system, psi, n_psi)
    assert len(refl) == 9
    closure = {identity(system).perm}
    frontier = [identity(system)]
    while frontier:
        x = frontier.pop()
        for r in refl:
            y = compose(x, r)
            if y.perm not in closure:
                closure.add(y.perm)
                frontier.append(y)
    assert closure == {w.perm for w in n_psi}

    assert [format_tabloid(space, t) for t in space] == [
        "{1000,0100,0001;1110}",
        "{1000,0110,0001;1100}",
        "{1100,0010,0101;1000}",
        "{0100,0010,1101;-1000}",
    ]

    e_vec = polytabloid(space, QQ, identity(system))
    assert e_vec.entries == {0: Fraction(1), 3: Fraction(-1)}

    disjoint = [t.rep_word for t in space if not (t.key & pp.roots)]
    assert disjoint == [(), (1, 2, 3)]

    assert is_good_subsystem(system, psi, pp).is_good
    assert module.dimension == 3

    basis = [
        polytabloid(space, QQ, word_to_element(system, w)) for w in ((), (3,), (2, 3))
    ]
    w = word_to_element(system, (1, 3, 2))
    m = matrix_of(module, w, basis_vectors=basis)
    assert [m[i][0] for i in range(3)] == [0, 1, -1]  # w e1 = e2 - e3
    assert [m[i][1] for i in range(3)] == [0, 0, -1]  # w e2 = -e3
    assert [m[i][2] for i in range(3)] == [1, 0, -1]  # w e3 = e1 - e3
    assert sum(m[i][i] for i in range(3)) == -1
    assert character_value(module, w) == -1

    assert character_norm(module) == 1  # full 192-element sum
    _report("D4 three-dimensional module: tabloids, goodness, matrix, norm 1")


def test_04_d4_six_dimensional_module(case_d4_deg6):
    space, module = case_d4_deg6.space, case_d4_deg6.module
    assert len(normalizer_of(space)) == 12
    assert len(space) == 16
    assert module.dimension == 6
    assert character_norm(module) == 1
    _report("D4 six-dimensional module: 16 tabloids, dim 6, norm 1")


def test_05_coefficient_laws_across_corpus(
    a3, w_a3, g2, w_g2, case_d4_rank3, case_d4_deg6
):
    violations = []
    pair_count = 0
    for system, group in ((a3, w_a3), (g2, w_g2)):
        for psi in candidate_subsystems(system, max_size=2):
            violations += semidirect_violations(system, group, psi)
        for psi, pp in disjoint_pairs(system, max_size=2):
            violations += coefficient_law_violations(
                system, group, psi, pp, check_norm=True
            )
            pair_count += 1
    for case in (case_d4_rank3, case_d4_deg6):
        violations += semidirect_violations(case.system, case.group, case.psi)
        violations += coefficient_law_violations(
            case.system, case.group, case.psi, case.psi_prime
        )
        pair_count += 1
    assert pair_count > 50  # the corpus is not vacuous
    assert violations == []
    _report(f"coefficient laws: zero violations across {pair_count} corpus pairs")


def test_06_submodule_dichotomy_probe(case_d4_rank3, d4, w_d4):
    report_q = submodule_theorem_probe(case_d4_rank3.module, trials=50, seed=1729)
    assert report_q.violations == ()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        module_f2 = build_specht_module(
            d4, case_d4_rank3.psi, case_d4_rank3.psi_prime, PrimeField(2), group=w_d4
        )
    report_f2 = submodule_theorem_probe(module_f2, trials=50, seed=1729)
    assert report_f2.violations == ()
    _report("submodule dichotomy: 50 seeded trials clean over Q and F2")


def test_07_generator_span_equals_full_orbit_span(a3, w_a3, g2, w_g2):
    pools = [
        (a3, w_a3, [p for p in disjoint_pairs(a3, max_size=2) if p[0].simples]),
        (g2, w_g2, [p for p in disjoint_pairs(g2, max_size=2) if p[0].simples]),
    ]
    rng = random.Random(20250810)
    instances = []
    for system, group, pairs in pools:
        instances += [(system, group, psi, pp) for psi, pp in pairs]
    sample = rng.sample(instances, 20)
    for system, group, psi, pp in sample:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            module = build_specht_module(system, psi, pp, QQ, group=group)
        full = row_reduce(
            QQ,
            [polytabloid(module.space, QQ, w) for w in group],
            dim=len(module.space),
        )
        assert full == module.basis
    _report("generator span equals the full orbit span on 20 seeded instances")


def test_08_group_engine():
    orders = {
        "A1": 2,
        "A2": 6,
        "A3": 24,
        "A4": 120,
        "B3": 48,
        "D4": 192,
        "G2": 12,
    }
    for label, expected in sorted(orders.items()):
        system = build_root_system(label)
        assert len(generate_group(system)) == expected

    d4 = build_root_system("D4")
    group = weyl_group(d4)
    rng = random.Random(4096)
    elems = group.elements
    for _ in range(10_000):
        a = rng.choice(elems)
        b = rng.choice(elems)
        assert sign(d4, compose(a, b)) == sign(d4, a) * sign(d4, b)
    _report("group engine: classical orders and multiplicative sign")

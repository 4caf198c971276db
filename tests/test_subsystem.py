import itertools
import random
import zlib

import pytest

from oracles import (
    EPS_SIMPLES,
    candidate_subsystems,
    closure_by_search,
    disjoint_pairs,
    distinguished_reps_by_scan,
    eps_dot,
    eps_embed,
    index_action_by_keys,
    load_workloads,
    normalizer_by_definition,
    normalizer_reps_by_products,
    orthogonal_complement_by_search,
    restricted_reflections_by_fixed_space,
    semidirect_violations,
    words_by_perm,
)
from weylspecht.rootsys import build_root_system, parse_root
from weylspecht.subsystem import (
    cartan_matrix,
    closure_from_simples,
    distinguished_reps,
    normalizer,
    orthogonal_complement,
    restricted_reflections,
    simple_system_of,
)
from weylspecht.specht import enumerate_tabloids
from weylspecht.weyl import (
    GroupLimitError,
    apply_to_root,
    compose,
    generate_group,
    length,
    subgroup_generated,
    word_to_element,
)


def roots_of(system, *texts):
    return [parse_root(system, t) for t in texts]


# --------------------------------------------------------------------------
# closures and classification


def test_two_a1_closure(a3):
    psi = closure_from_simples(a3, roots_of(a3, "100", "001"))
    assert psi.size == 4
    assert psi.label == "2A1"
    assert psi.roots == frozenset(
        [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)]
    )
    again = closure_from_simples(build_root_system("A3"), roots_of(a3, "100", "001"))
    assert again is not psi and again == psi and hash(again) == hash(psi)
    assert psi != closure_from_simples(a3, roots_of(a3, "001", "100"))


def test_a2_closure_in_d4(d4):
    psi = closure_from_simples(d4, roots_of(d4, "0001", "0110"))
    assert psi.size == 6
    assert psi.label == "A2"


def test_empty_closure(a3):
    psi = closure_from_simples(a3, [])
    assert psi.size == 0
    assert psi.label == "0"
    assert psi.simples == ()


def test_full_system_closure(a3):
    psi = closure_from_simples(a3, a3.simple_roots())
    assert psi.size == 12
    assert psi.label == "A3"


def test_g2_component_labels(g2):
    assert closure_from_simples(g2, roots_of(g2, "01", "31")).label == "A2"
    assert closure_from_simples(g2, roots_of(g2, "10", "32")).label == "2A1"
    assert closure_from_simples(g2, g2.simple_roots()).label == "G2"


def test_b_type_component_label():
    from weylspecht.rootsys import build_root_system

    b3 = build_root_system("B3")
    psi = closure_from_simples(b3, roots_of(b3, "010", "001"))
    assert psi.label == "B2"


@pytest.mark.parametrize(
    "label,expected",
    [
        ("A4", "A4"),
        ("B1", "A1"),  # a single root pair is always A1
        ("B4", "B4"),
        ("C2", "B2"),  # rank-2 B and C diagrams are isomorphic
        ("C3", "C3"),
        ("C4", "C4"),
        ("D2", "2A1"),
        ("D3", "A3"),
        ("D4", "D4"),
        ("G2", "G2"),
        ("F4", "F4"),
    ],
)
def test_full_system_classification(label, expected):
    from weylspecht.rootsys import build_root_system

    system = build_root_system(label)
    assert closure_from_simples(system, system.simple_roots()).label == expected


def test_closure_rejects_bad_input(a3):
    with pytest.raises(ValueError):
        closure_from_simples(a3, [(-1, 0, 0)])  # not positive
    with pytest.raises(ValueError):
        closure_from_simples(a3, [(1, 0, 0), (1, 0, 0)])  # dependent
    with pytest.raises(ValueError):
        closure_from_simples(a3, [(2, 0, 0)])  # not a root
    with pytest.raises(ValueError):
        # acute pair: 110 = 100 + 010 decomposes inside the closure
        closure_from_simples(a3, roots_of(a3, "100", "110"))


def test_cartan_matrix_values(g2):
    c = cartan_matrix(g2, g2.simple_roots())
    assert c == ((2, -3), (-1, 2))


# --------------------------------------------------------------------------
# subsystems from J alone against the searches they replace

ALL_TYPES = (
    [f"{series}{n}" for series in "ABC" for n in range(1, 9)]
    + [f"D{n}" for n in range(2, 9)]
    + ["G2", "F4"]
)


def _matches_search(system, simples) -> bool:
    """Same subsystem and complement as the searches, or the same error;
    returns whether J was accepted."""
    try:
        expected = closure_by_search(system, simples)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            closure_from_simples(system, simples)
        assert str(got.value) == str(exc)
        return False
    psi = closure_from_simples(system, simples)
    assert psi == expected
    perp = orthogonal_complement(system, psi)
    assert perp == orthogonal_complement_by_search(system, psi)
    return True


@pytest.mark.parametrize("label", ALL_TYPES)
def test_parabolic_subsystems_match_search(label):
    system = build_root_system(label)
    simples = system.simple_roots()
    for size in range(system.rank + 1):
        for j in itertools.combinations(simples, size):
            assert _matches_search(system, j)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_random_root_sets_match_search(label):
    system = build_root_system(label)
    positives = system.roots[: system.positive_count]
    rng = random.Random(zlib.crc32(label.encode()))
    accepted = 0
    for _ in range(40):
        j = rng.sample(positives, rng.randint(1, min(system.rank, 4)))
        accepted += _matches_search(system, j)
    assert accepted > 0


# --------------------------------------------------------------------------
# simple systems of closed sets


def test_simple_system_already_simple(a3):
    s = {(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)}
    assert set(simple_system_of(a3, s)) == {(1, 0, 0), (0, 0, 1)}


def test_simple_system_of_single_pair(a3):
    psi = closure_from_simples(a3, roots_of(a3, "110"))
    assert simple_system_of(a3, psi.roots) == ((1, 1, 0),)


def test_simple_system_of_whole_system(a3):
    assert set(simple_system_of(a3, a3.roots)) == set(a3.simple_roots())


def test_simple_system_rejects_open_sets(a3):
    with pytest.raises(ValueError):
        simple_system_of(a3, [(1, 0, 0)])  # not negation stable
    with pytest.raises(ValueError):
        # negation-stable but not reflection-closed
        simple_system_of(a3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])


def test_closure_of_simple_system_roundtrip(a3, g2):
    for system in (a3, g2):
        for psi in candidate_subsystems(system, max_size=2):
            if not psi.simples:
                continue
            again = closure_from_simples(system, simple_system_of(system, psi.roots))
            assert again.roots == psi.roots


# --------------------------------------------------------------------------
# orthogonal complements


def test_orthogonal_complement_a3(a3):
    psi = closure_from_simples(a3, roots_of(a3, "100"))
    perp = orthogonal_complement(a3, psi)
    assert perp.label == "A1"
    assert perp.roots == frozenset([(0, 0, 1), (0, 0, -1)])
    # epsilon-space scan for the same answer
    eps = EPS_SIMPLES["A3"]
    target = eps_embed(eps, (1, 0, 0))
    expected = {
        r for r in a3.roots if eps_dot(eps_embed(eps, r), target) == 0
    }
    assert perp.roots == frozenset(expected)


def test_orthogonal_complement_g2(g2):
    psi = closure_from_simples(g2, roots_of(g2, "10"))
    perp = orthogonal_complement(g2, psi)
    assert perp.label == "A1"
    assert perp.roots == frozenset([(3, 2), (-3, -2)])


def test_orthogonal_complement_of_everything(a3):
    full = closure_from_simples(a3, a3.simple_roots())
    assert orthogonal_complement(a3, full).size == 0
    empty = closure_from_simples(a3, [])
    assert orthogonal_complement(a3, empty).size == len(a3.roots)


def test_double_complement_contains_original(a3, g2):
    for system in (a3, g2):
        for psi in candidate_subsystems(system, max_size=2):
            perp = orthogonal_complement(system, psi)
            back = orthogonal_complement(system, perp)
            assert psi.roots <= back.roots


# --------------------------------------------------------------------------
# normalizers


def test_normalizer_g2_single_root(g2, w_g2):
    psi = closure_from_simples(g2, roots_of(g2, "10"))
    n_psi = normalizer(g2, psi, w_g2)
    expected_words = [(), (1,), (2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1)]
    expected = {word_to_element(g2, w).perm for w in expected_words}
    assert {w.perm for w in n_psi} == expected


def test_normalizer_d4_chain(d4, w_d4):
    psi = closure_from_simples(d4, roots_of(d4, "1000", "0100", "0001"))
    n_psi = normalizer(d4, psi, w_d4)
    assert len(n_psi) == 48
    # generated by the reflections of its action on the span of psi; the
    # ambient group contributes only the 6 reflections of W(psi) itself
    refl = restricted_reflections(d4, psi, n_psi)
    assert len(refl) == 9
    assert _closure_order(refl) == 48


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4"])
def test_restricted_reflections_match_fixed_space(label):
    system = build_root_system(label)
    group = generate_group(system)
    for psi in candidate_subsystems(system):
        expected = restricted_reflections_by_fixed_space(system, psi, group)
        assert restricted_reflections(system, psi, group) == expected, psi.simples


def _closure_order(elements):
    elements = list(elements)
    seen = {e.perm for e in elements}
    frontier = list(elements)
    while frontier:
        x = frontier.pop()
        for r in elements:
            y = compose(x, r)
            if y.perm not in seen:
                seen.add(y.perm)
                frontier.append(y)
    return len(seen)


def test_normalizer_of_whole_system(a3, w_a3):
    full = closure_from_simples(a3, a3.simple_roots())
    assert normalizer(a3, full, w_a3) == tuple(w_a3)


def test_semidirect_decomposition(a3, w_a3, g2, w_g2, d4, w_d4):
    bad = []
    for system, group in ((a3, w_a3), (g2, w_g2)):
        for psi in candidate_subsystems(system, max_size=2):
            bad += semidirect_violations(system, group, psi)
    for texts in (("1000", "0100", "0001"), ("1000", "0100")):
        psi = closure_from_simples(d4, roots_of(d4, *texts))
        bad += semidirect_violations(d4, w_d4, psi)
    assert bad == []


# --------------------------------------------------------------------------
# transversals


def _dist_words(system, psi):
    # the words of the D_psi walk, in its order
    return tuple(word for _, word, _ in distinguished_reps(system, psi))


def test_distinguished_reps_a3(a3, w_a3):
    psi = closure_from_simples(a3, roots_of(a3, "100", "001"))
    reps = [word_to_element(a3, w) for w in _dist_words(a3, psi)]
    w_psi = subgroup_generated(a3, psi.simples)
    assert len(reps) == len(w_a3) // len(w_psi) == 6
    # exactly one representative per coset, of minimal length
    cosets = {}
    for w in w_a3:
        key = frozenset(compose(w, u).perm for u in w_psi)
        cosets.setdefault(key, []).append(w)
    for members in cosets.values():
        chosen = [w for w in members if w in reps]
        assert len(chosen) == 1
        assert length(a3, chosen[0]) == min(length(a3, w) for w in members)


def test_distinguished_reps_trivial_cases(a3, w_a3):
    empty = closure_from_simples(a3, [])
    assert _dist_words(a3, empty) == w_a3.words
    psi = closure_from_simples(a3, roots_of(a3, "100"))
    assert next(distinguished_reps(a3, psi))[1:] == ((), None)
    # rank 1: each point of the walk is one simple root, and J is empty
    a1 = build_root_system("A1")
    w_a1 = generate_group(a1)
    empty = closure_from_simples(a1, [])
    assert _dist_words(a1, empty) == w_a1.words


def test_distinguished_reps_limit(a3):
    empty = closure_from_simples(a3, [])
    assert len(tuple(distinguished_reps(a3, empty, limit=24))) == 24
    with pytest.raises(GroupLimitError, match="limit of 23"):
        tuple(distinguished_reps(a3, empty, limit=23))


def _assert_walk_matches_scan(system, group, psi):
    # a word names one element, so equal words are equal elements
    expected = distinguished_reps_by_scan(system, psi, group)
    word_of = words_by_perm(group)
    assert _dist_words(system, psi) == tuple(word_of[d.perm] for d in expected)


@pytest.mark.parametrize("label", ["A3", "G2", "B3", "C3", "D4"])
def test_distinguished_walk_matches_scan_on_every_pair(label):
    # D_psi' of every disjoint pair, walked without W, against the W scan
    system = build_root_system(label)
    group = generate_group(system)
    columns = {pp.roots: pp for _, pp in disjoint_pairs(system, max_size=2)}
    for pp in columns.values():
        _assert_walk_matches_scan(system, group, pp)


BENCHMARK_PAIRS = load_workloads().PAIRS  # name: (ambient, J, J')


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if n in ("A7", "D6", "B6") else n
        for n in sorted(BENCHMARK_PAIRS)
    ],
)
def test_distinguished_walk_matches_scan_on_benchmark_pairs(name):
    ambient, _, jp_text = BENCHMARK_PAIRS[name]
    system = build_root_system(ambient)
    pp = closure_from_simples(system, roots_of(system, *jp_text.split(",")))
    _assert_walk_matches_scan(system, generate_group(system), pp)


def _assert_reps_words(system, group, psi, expected):
    space = _assert_orbit_matches_oracle(system, group, psi)
    assert [t.rep_word for t in space] == expected


def test_normalizer_reps_a3(a3, w_a3):
    psi = closure_from_simples(a3, roots_of(a3, "100", "001"))
    _assert_reps_words(a3, w_a3, psi, [(), (2,), (1, 2)])


def test_normalizer_reps_d4(d4, w_d4):
    psi = closure_from_simples(d4, roots_of(d4, "1000", "0100", "0001"))
    _assert_reps_words(d4, w_d4, psi, [(), (3,), (2, 3), (1, 2, 3)])


def test_normalizer_reps_whole_system(a3, w_a3):
    full = closure_from_simples(a3, a3.simple_roots())
    _assert_reps_words(a3, w_a3, full, [()])


def test_coset_reps_lie_among_distinguished(a3, w_a3, g2, w_g2, d4, w_d4):
    for system, group in ((a3, w_a3), (g2, w_g2), (d4, w_d4)):
        for psi in candidate_subsystems(system, max_size=3):
            dist = set(_dist_words(system, psi))
            for t in enumerate_tabloids(system, psi, group):
                assert t.rep_word in dist


# --------------------------------------------------------------------------
# the orbit of psi against the W-based definitions


def _assert_orbit_matches_oracle(system, group, psi):
    """Reps, words, key order and tables of the orbit against the coset
    scan of W, and the lazy N(psi) against its definition; returns the
    space."""
    space = enumerate_tabloids(system, psi, group)
    n_psi = normalizer_by_definition(system, psi, group)[0]
    reps = normalizer_reps_by_products(system, group, n_psi)
    assert [t.rep for t in space] == list(reps)
    word_of = words_by_perm(group)
    assert [t.rep_word for t in space] == [word_of[d.perm] for d in reps]
    assert [t.key for t in space] == [
        frozenset(apply_to_root(system, d, r) for r in psi.roots) for d in reps
    ]
    assert space.n_psi == n_psi
    for i, table in enumerate(space._tables):
        assert table == index_action_by_keys(space, group[i + 1])
    return space


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4"])
def test_sweep_matches_oracle_on_candidates(label):
    system = build_root_system(label)
    group = generate_group(system)
    for psi in candidate_subsystems(system, max_size=2):
        _assert_orbit_matches_oracle(system, group, psi)


# the J's of the benchmark pairs F4, A5, A6 and of the large-W screens
@pytest.mark.parametrize(
    "label, j_texts",
    [
        ("F4", ("1000", "0100", "0010")),
        ("A5", ("10000", "01000", "00010")),
        pytest.param(
            "A6", ("100000", "010000", "000100", "000010"), marks=pytest.mark.slow
        ),
        pytest.param("A7", ("1000000",), marks=pytest.mark.slow),
        pytest.param("D6", ("100000",), marks=pytest.mark.slow),
        pytest.param("B6", ("100000",), marks=pytest.mark.slow),
    ],
    ids=["F4", "A5", "A6", "A7", "D6", "B6"],
)
def test_sweep_matches_oracle_on_benchmark_pairs(label, j_texts):
    system = build_root_system(label)
    psi = closure_from_simples(system, roots_of(system, *j_texts))
    _assert_orbit_matches_oracle(system, generate_group(system), psi)


def test_sweep_of_empty_psi(a3, w_a3):
    empty = closure_from_simples(a3, [])
    space = _assert_orbit_matches_oracle(a3, w_a3, empty)
    assert space.n_psi == tuple(w_a3)
    assert [t.rep for t in space] == [w_a3.identity]


def test_sweep_of_whole_system(d4, w_d4):
    full = closure_from_simples(d4, d4.simple_roots())
    space = _assert_orbit_matches_oracle(d4, w_d4, full)
    assert space.n_psi == tuple(w_d4)
    assert [t.rep for t in space] == [w_d4.identity]
    # W acts simply transitively on simple systems
    assert normalizer_by_definition(d4, full, w_d4)[1] == (w_d4.identity,)

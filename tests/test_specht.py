import functools
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bareiss_rank,
    benchmark_pair_module,
    character_norm_by_fold,
    character_norm_by_words,
    cyclic_span_by_field_ops,
    cyclic_span_by_orbit,
    disjoint_pairs,
    distinguished_reps_by_scan,
    index_action_by_keys,
    load_workloads,
    matrix_in_basis_by_solving,
    quotient_dimension_by_complements,
    quotient_dimension_by_sum,
    row_reading_pair,
)
from weylspecht import (
    SpechtModuleData,
    act_tabloid,
    act_vector,
    apply_kappa,
    bilinear_form,
    build_root_system,
    build_specht_module,
    character_norm,
    character_value,
    closure_from_simples,
    cyclic_submodule,
    enumerate_tabloids,
    format_module_vector,
    format_tabloid,
    generate_group,
    matrix_of,
    polytabloid,
    quotient_dimension,
)
from weylspecht.exactlin import (
    QQ,
    PrimeField,
    SparseVector,
    SubspaceBasis,
    from_dense,
    row_reduce,
    vector,
)
from weylspecht.rootsys import parse_root
from weylspecht.specht import _permuted
from weylspecht.subsystem import distinguished_reps
from weylspecht.verify import DEFAULT_PROBE_SEED, probe_vector
from weylspecht.weyl import (
    GroupLimitError,
    apply_to_root,
    compose,
    coset_walk,
    fold_preorder,
    fold_walk,
    identity,
    inverse,
    sign,
    simple_reflection,
    word_to_element,
)


def unit(dim, i):
    return SparseVector(dim, {i: QQ.one})


# --------------------------------------------------------------------------
# tabloid enumeration


def test_a3_tabloid_displays(case_a3):
    space = case_a3.space
    assert len(space) == 3
    assert [format_tabloid(space, t) for t in space] == [
        "{100,001;110}",
        "{110,011;100}",
        "{010,111;-100}",
    ]
    assert [t.rep_word for t in space] == [(), (2,), (1, 2)]


def test_d4_tabloid_displays(case_d4_rank3):
    space = case_d4_rank3.space
    assert len(space) == 4
    assert [format_tabloid(space, t) for t in space] == [
        "{1000,0100,0001;1110}",
        "{1000,0110,0001;1100}",
        "{1100,0010,0101;1000}",
        "{0100,0010,1101;-1000}",
    ]


def test_whole_system_has_one_tabloid(a3, w_a3):
    psi = closure_from_simples(a3, a3.simple_roots())
    space = enumerate_tabloids(a3, psi, w_a3)
    assert len(space) == 1
    assert space[0].rep_word == ()


def test_tabloid_count_is_group_index(case_d4_rank3):
    space = case_d4_rank3.space
    assert len(space) * len(space.n_psi) == len(space.group)


def test_tabloid_keys_are_distinct(case_d4_deg6):
    space = case_d4_deg6.space
    assert len(space) == 16
    assert len({t.key for t in space}) == 16


# --------------------------------------------------------------------------
# the action on tabloids


def test_identity_action(case_a3):
    space = case_a3.space
    for t in space:
        assert act_tabloid(space, identity(case_a3.system), t) is t


def test_simple_reflection_action(case_a3):
    space = case_a3.space
    t2 = word_to_element(case_a3.system, (2,))
    assert act_tabloid(space, t2, space[0]) is space[1]


def test_stabilizer_fixes_base_tabloid(case_a3):
    space = case_a3.space
    for n in space.n_psi:
        assert act_tabloid(space, n, space[0]) is space[0]


def test_action_is_compatible_with_composition(case_d4_rank3):
    space = case_d4_rank3.space
    rng = random.Random(5)
    elems = space.group.elements
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        for t in space:
            assert act_tabloid(space, compose(a, b), t) is act_tabloid(
                space, a, act_tabloid(space, b, t)
            )


def _space(label, j_texts, jp_texts):
    system = build_root_system(label)
    return enumerate_tabloids(
        system,
        closure_from_simples(system, [parse_root(system, t) for t in j_texts]),
        generate_group(system),
        closure_from_simples(system, [parse_root(system, t) for t in jp_texts]),
    )


@pytest.mark.parametrize(
    "label, j_texts",
    [
        ("A3", ("100", "001")),
        ("G2", ("10",)),
        ("D4", ("1000", "0100", "0001")),
        ("D4", ("1000", "0100")),
        ("F4", ("1000", "0100", "0010")),
    ],
    ids=["A3", "G2", "D4-3", "D4-6", "F4"],
)
def test_tabloid_keys_are_the_images_of_psi(label, j_texts):
    # the keys come from the orbit of psi's root indices
    system = build_root_system(label)
    psi = closure_from_simples(system, [parse_root(system, t) for t in j_texts])
    space = enumerate_tabloids(system, psi, generate_group(system))
    for t in space:
        assert t.key == frozenset(apply_to_root(system, t.rep, r) for r in psi.roots)


def test_folded_action_matches_key_definition(case_a3, case_g2, case_d4_rank3, case_d4_deg6):
    # an element folds its descent word, a word folds itself
    f4 = _space("F4", ("1000", "0100", "0010"), ("0001",))
    spaces = [c.space for c in (case_a3, case_g2, case_d4_rank3, case_d4_deg6)]
    for space in spaces + [f4]:
        group = space.group
        for w, word in zip(group.elements, group.words):
            expected = index_action_by_keys(space, w)
            assert space.index_action(w) == expected
            assert space.index_action(word) == expected


def _kappa_by_keys(space):
    # per tabloid i, the signed sum over W(psi') of the images of i, by key
    actions = [
        (index_action_by_keys(space, sigma), sign(space.system, sigma))
        for sigma in space.col_group
    ]
    kappas = []
    for i in range(len(space)):
        acc = {}
        for m, sgn in actions:
            acc[m[i]] = acc.get(m[i], 0) + sgn
        kappas.append({j: Fraction(c) for j, c in acc.items() if c})
    return kappas


@pytest.mark.parametrize(
    "label, j_texts, jp_texts",
    [
        ("A3", ("100", "001"), ("110",)),
        ("G2", ("10",), ("01", "31")),
        ("D4", ("1000", "0100", "0001"), ("1110",)),
        ("D4", ("1000", "0100"), ("0001", "0110")),
        ("F4", ("1000", "0100", "0010"), ("0001",)),
        ("A5", ("10000", "01000", "00010"), ("11100", "01110")),
        pytest.param(
            "A6",
            ("100000", "010000", "000100", "000010"),
            ("111000", "011100"),
            marks=pytest.mark.slow,
        ),
        pytest.param(
            "A7",
            ("1000000",),
            ("1100000", "0010000", "0001000", "0000100", "0000010", "0000001"),
            marks=pytest.mark.slow,
        ),
    ],
    ids=["A3", "G2", "D4-3", "D4-6", "F4", "A5", "A6", "A7"],
)
def test_kappa_folds_the_column_words(label, j_texts, jp_texts):
    # each sigma's permutation is one step from its prefix's, its sign is
    # the parity of its word, and the sum over W(psi') equals the sum by
    # keys; W is never generated
    system = build_root_system(label)
    psi, pp = (
        closure_from_simples(system, [parse_root(system, t) for t in texts])
        for texts in (j_texts, jp_texts)
    )
    space = enumerate_tabloids(system, psi, psi_prime=pp)
    for i, expected in enumerate(_kappa_by_keys(space)):
        assert apply_kappa(space, QQ, unit(len(space), i)).entries == expected
    for w, word in zip(space.col_group, space.col_group.words):
        assert sign(system, w) == (-1) ** len(word)
    assert "group" not in vars(space)


def test_fold_walk_on_tabloids_matches_whole_word_folds(case_d4_deg6):
    # on the walks of W and of D_psi': a right-composition table step from
    # the parent gives the permutation of w^-1, and a translate step gives
    # w e_{J,J'} (read by the generator listing); on W's preorder the same
    # table step from the parent also gives the permutation of w^-1 (read
    # by `character_norm`, and by `apply_kappa` on W(psi'))
    space = case_d4_deg6.space
    e = polytabloid(space, QQ, ())
    start = tuple(range(len(space)))
    translate_steps = [functools.partial(_permuted, table) for table in space._tables]
    system = space.system
    seed = tuple(system.index[a] for a in system.simple_roots())
    w_walk = tuple(coset_walk(system.simple_reflection_perms, seed))
    for walk in (w_walk, tuple(distinguished_reps(system, space.psi_prime))):
        for word, m in fold_walk(walk, space._steps, start):
            assert m == space.index_action(word[::-1])
        for word, v in fold_walk(walk, translate_steps, e):
            assert v == act_vector(space, QQ, word, e)
    prepend = [lambda u, a=a: (a,) + u for a in range(1, system.rank + 1)]
    words = [w for _, w in fold_preorder(space.group.preorder, prepend, ())]
    folded = fold_preorder(space.group.preorder, space._steps, start)
    for word, (depth, m) in zip(words, folded, strict=True):
        assert depth == len(word) and m == space.index_action(word[::-1])


def test_space_without_group_matches_space_with_group(case_d4_rank3, case_g2):
    # W is generated when `group` is first read, and equals the given one
    for c in (case_d4_rank3, case_g2):
        space = enumerate_tabloids(c.system, c.psi, psi_prime=c.psi_prime)
        assert space.tabloids == c.space.tabloids
        assert space.col_stabilizer == c.space.col_stabilizer
        assert space.base_polytabloid == c.space.base_polytabloid
        assert "group" not in vars(space)
        assert space.group == c.group


def test_action_rejects_element_of_another_system():
    # B3 and C3 share the root count and two root permutations; only the
    # system label tells the non-identity one apart
    c3_space = _space("C3", ("100",), ("001",))
    c3_perms = {w.perm for w in c3_space.group}
    b3_group = generate_group(build_root_system("B3"))
    shared = [w for w in b3_group if w.perm in c3_perms and w != b3_group.identity]
    assert shared
    for w in shared:
        with pytest.raises(ValueError):
            c3_space.index_action(w)


@pytest.mark.parametrize("letter", [0, -1, 5])
def test_action_rejects_letters_out_of_range(case_d4_deg6, letter):
    # a letter outside 1..rank names no simple reflection of D4
    module = case_d4_deg6.module
    space = module.space
    message = f"generator index {letter} out of range 1..4"
    with pytest.raises(IndexError, match=message):
        character_value(module, (letter,))
    with pytest.raises(IndexError, match=message):
        act_vector(space, QQ, (1, letter), module.e_vec)
    with pytest.raises(IndexError, match=message):
        polytabloid(space, QQ, (letter,))


# --------------------------------------------------------------------------
# kappa and polytabloids


def test_kappa_with_trivial_column_group(a3, w_a3):
    psi = closure_from_simples(a3, [parse_root(a3, "100"), parse_root(a3, "001")])
    empty = closure_from_simples(a3, [])
    space = enumerate_tabloids(a3, psi, w_a3, empty)
    v = unit(len(space), 1)
    assert apply_kappa(space, QQ, v).entries == v.entries
    # with no J' a tabloid displays as {dJ}, as in the psi-only space
    shown = [format_tabloid(space, t) for t in space]
    alone = enumerate_tabloids(a3, psi, w_a3)
    assert shown == [format_tabloid(alone, t) for t in alone]
    assert shown == ["{100,001}", "{110,011}", "{010,111}"]


def test_kappa_on_base_tabloid_d4(case_d4_rank3):
    space = case_d4_rank3.space
    k = apply_kappa(space, QQ, unit(len(space), 0))
    assert k.entries == {0: Fraction(1), 3: Fraction(-1)}


def test_kappa_kills_meeting_cosets(case_d4_rank3):
    space = case_d4_rank3.space
    pp_roots = case_d4_rank3.psi_prime.roots
    for i, t in enumerate(space):
        if t.key & pp_roots:
            assert apply_kappa(space, QQ, unit(len(space), i)).is_zero()


def test_polytabloid_matches_kappa_of_base(case_a3, case_d4_rank3):
    for case in (case_a3, case_d4_rank3):
        space = case.space
        e_vec = polytabloid(space, QQ, identity(case.system))
        assert e_vec.entries == apply_kappa(space, QQ, unit(len(space), 0)).entries


def test_polytabloid_vanishes_g2(case_g2):
    space = case_g2.space
    assert polytabloid(space, QQ, identity(case_g2.system)).is_zero()


def test_polytabloid_values_d4(case_d4_rank3):
    space = case_d4_rank3.space
    sys = case_d4_rank3.system
    e = polytabloid(space, QQ, identity(sys))
    assert e.entries == {0: Fraction(1), 3: Fraction(-1)}
    e_t3 = polytabloid(space, QQ, word_to_element(sys, (3,)))
    assert e_t3.entries == {1: Fraction(1), 3: Fraction(-1)}


def test_polytabloid_equivariance(case_a3):
    space = case_a3.space
    base = polytabloid(space, QQ, identity(case_a3.system))
    for w in space.group:
        assert polytabloid(space, QQ, w).entries == act_vector(
            space, QQ, w, base
        ).entries


def test_polytabloid_requires_column_system(a3, w_a3):
    psi = closure_from_simples(a3, [parse_root(a3, "100")])
    space = enumerate_tabloids(a3, psi, w_a3)
    with pytest.raises(ValueError):
        polytabloid(space, QQ, identity(a3))


# --------------------------------------------------------------------------
# cyclic submodules

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
F4_PAIR = ("F4", ("1000", "0100", "0010"), ("0001",))


@pytest.fixture(scope="module")
def corpus(case_a3, case_g2, case_d4_rank3, case_d4_deg6):
    """(system, group, psi, psi', space) for A3, G2, D4 x2 and F4."""
    cases = [
        (c.system, c.group, c.psi, c.psi_prime, c.space)
        for c in (case_a3, case_g2, case_d4_rank3, case_d4_deg6)
    ]
    f4 = _space(*F4_PAIR)
    return cases + [(f4.system, f4.group, f4.psi, f4.psi_prime, f4)]


def _assert_spin_matches_orbit(space, field):
    dim = len(space)
    zero = SparseVector(dim, {})
    ones = SparseVector(dim, dict.fromkeys(range(dim), field.one))
    probes = [probe_vector(field, dim, DEFAULT_PROBE_SEED, t) for t in range(5)]
    for v in probes + [polytabloid(space, field, space.group.identity), zero, ones]:
        assert cyclic_submodule(space, field, v) == cyclic_span_by_orbit(space, field, v)
    spun_zero = cyclic_submodule(space, field, zero)
    assert (spun_zero.rank, spun_zero.dim) == (0, dim)
    assert cyclic_submodule(space, field, ones).rank == 1  # the trivial module


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_cyclic_submodule_matches_orbit_span(corpus, field):
    for *_, space in corpus:
        _assert_spin_matches_orbit(space, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_cyclic_submodule_on_one_tabloid(a3, w_a3, field):
    space = enumerate_tabloids(a3, closure_from_simples(a3, a3.simple_roots()), w_a3)
    v = SparseVector(1, {0: field.neg(field.one)})
    assert cyclic_submodule(space, field, v) == cyclic_span_by_orbit(space, field, v)
    assert cyclic_submodule(space, field, v).rows == (SparseVector(1, {0: field.one}),)


def test_cyclic_submodule_rejects_foreign_vector(case_a3):
    with pytest.raises(ValueError):
        cyclic_submodule(case_a3.space, QQ, SparseVector(len(case_a3.space) + 1, {}))


@pytest.mark.slow
def test_cyclic_submodule_matches_orbit_span_a5_mod_p():
    space = _space("A5", ("10000", "01000", "00010"), ("11100", "01110"))
    _assert_spin_matches_orbit(space, PrimeField(2**31 - 1))


CORPUS = load_workloads().PAIRS  # name: (ambient, J, J')
SPIN_FIELDS = FIELDS + [PrimeField(2**31 - 1)]


def _sparse_vectors(field, dim):
    # a tabloid difference, whose spin lies in the sum-zero submodule, and a
    # 3-sparse vector
    yield SparseVector(dim, {0: field.one, dim - 1: field.neg(field.one)})
    rng = random.Random(dim)
    entries = {i: field.from_int(rng.choice((-2, -1, 1, 3))) for i in rng.sample(range(dim), 3)}
    yield SparseVector(dim, {i: c for i, c in entries.items() if c != field.zero})


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if int(CORPUS[n][0][1:]) > 4 else n
        for n in sorted(CORPUS)
    ],
)
def test_cyclic_submodule_matches_field_ops_spin(name):
    ambient, j_text, jp_text = CORPUS[name]
    space = _space(ambient, j_text.split(","), jp_text.split(","))
    dim = len(space)
    for field in SPIN_FIELDS:
        vectors = [polytabloid(space, field, space.group.identity)]
        vectors += _sparse_vectors(field, dim) if dim >= 3 else []
        if dim <= 40:  # dense vectors spin slowly in the field-operation oracle
            vectors.append(probe_vector(field, dim, DEFAULT_PROBE_SEED, 0))
        for v in vectors:
            basis = cyclic_submodule(space, field, v)
            assert basis == cyclic_span_by_field_ops(space, field, v)
            if field == QQ:
                assert all(type(c) is Fraction for r in basis.rows for c in r.entries.values())


# --------------------------------------------------------------------------
# module construction


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_spun_basis_is_the_generator_span(corpus, field):
    for system, group, psi, psi_prime, space in corpus:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            module = build_specht_module(system, psi, psi_prime, field, group=group)
        assert module.basis == cyclic_span_by_orbit(space, field, module.e_vec)
        gens = [act_vector(space, field, d, module.e_vec) for d in module.generators]
        assert module.basis == row_reduce(field, gens, dim=len(space))


def test_module_dimensions(case_a3, case_g2, case_d4_rank3, case_d4_deg6):
    assert case_d4_rank3.module.dimension == 3
    assert case_d4_deg6.module.dimension == 6
    assert case_g2.module.dimension == 0
    assert case_a3.module.dimension == 2


def test_build_warns_on_degenerate_pair(g2, w_g2):
    psi = closure_from_simples(g2, [parse_root(g2, "10")])
    pp = closure_from_simples(g2, [parse_root(g2, "01"), parse_root(g2, "31")])
    with pytest.warns(UserWarning):
        build_specht_module(g2, psi, pp, QQ, group=w_g2)


def test_full_span_cross_check(a3, w_a3):
    psi = closure_from_simples(a3, [parse_root(a3, "100"), parse_root(a3, "001")])
    pp = closure_from_simples(a3, [parse_root(a3, "110")])
    module = build_specht_module(a3, psi, pp, QQ, group=w_a3)
    assert module.dimension == 2
    assert module.basis == cyclic_span_by_orbit(module.space, QQ, module.e_vec)


def test_generators_are_the_distinguished_translates_of_e(case_d4_deg6):
    module = case_d4_deg6.module
    space = module.space
    dreps = distinguished_reps_by_scan(space.system, space.psi_prime, space.group)
    assert module.generators == dreps
    assert module.generators[0] == space.group.identity
    assert module.e_vec == polytabloid(space, QQ, space.group.identity)
    assert all(
        act_vector(space, QQ, d, module.e_vec) == polytabloid(space, QQ, d)
        for d in module.generators
    )


def test_generators_live_in_the_basis_span(case_d4_deg6):
    from weylspecht.exactlin import contains

    module = case_d4_deg6.module
    for d in module.generators:
        assert contains(module.basis, act_vector(module.space, QQ, d, module.e_vec))


def test_walks_of_a_built_module_stop_at_its_limit(a3):
    # the A3 pair: 3 tabloids, |W(psi')| = 2 and |D_psi'| = 12, so the
    # generators and the norm, which walks D_psi' and not W, need a limit of 12
    psi = closure_from_simples(a3, [parse_root(a3, r) for r in ("100", "001")])
    pp = closure_from_simples(a3, [parse_root(a3, "110")])
    module = build_specht_module(a3, psi, pp, QQ, limit=12)
    assert len(module.generators) == 12
    assert character_norm(module) == 1
    module = build_specht_module(a3, psi, pp, QQ, limit=11)
    with pytest.raises(GroupLimitError, match="limit of 11 points"):
        character_norm(module)
    with pytest.raises(GroupLimitError, match="limit of 11 points"):
        module.generators


def test_span_stability_under_group(case_d4_rank3):
    from weylspecht.exactlin import contains

    module = case_d4_rank3.module
    space = module.space
    rng = random.Random(11)
    sample = [space.group[i] for i in rng.sample(range(len(space.group)), 20)]
    for w in sample:
        for row in module.basis.rows:
            assert contains(module.basis, act_vector(space, QQ, w, row))


# --------------------------------------------------------------------------
# bilinear form


def test_delta_form_values(case_a3):
    space = case_a3.space
    t0 = unit(len(space), 0)
    t1 = unit(len(space), 1)
    assert bilinear_form(QQ, t0, t0) == 1
    assert bilinear_form(QQ, t0, t1) == 0


def test_delta_form_invariance(case_d4_rank3):
    space = case_d4_rank3.space
    rng = random.Random(23)
    dim = len(space)
    for _ in range(25):
        w = rng.choice(space.group.elements)
        m1 = SparseVector(dim, {i: Fraction(rng.randint(-3, 3)) for i in range(dim)})
        m1.entries = {i: c for i, c in m1.entries.items() if c}
        m2 = SparseVector(dim, {i: Fraction(rng.randint(-3, 3)) for i in range(dim)})
        m2.entries = {i: c for i, c in m2.entries.items() if c}
        assert bilinear_form(QQ, m1, m2) == bilinear_form(
            QQ, act_vector(space, QQ, w, m1), act_vector(space, QQ, w, m2)
        )


def test_form_dimension_mismatch(case_a3, case_d4_rank3):
    with pytest.raises(ValueError):
        bilinear_form(QQ, unit(3, 0), unit(4, 0))


# --------------------------------------------------------------------------
# quotient dimensions


def test_quotient_dimensions(case_g2, case_d4_rank3, case_d4_deg6):
    assert quotient_dimension(case_d4_rank3.module) == (3, 0, 3)
    assert quotient_dimension(case_d4_deg6.module) == (6, 0, 6)
    assert quotient_dimension(case_g2.module) == (0, 0, 0)


# the radicals of the corpus pairs (A3, G2, D4 x2, F4) by characteristic; the
# form is positive definite over Q
CORPUS_RADICALS = {
    0: (0, 0, 0, 0, 0),
    2: (0, 0, 1, 6, 1),
    3: (1, 0, 0, 0, 1),
    5: (0, 0, 0, 0, 0),
    2**31 - 1: (0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("field", FIELDS + [PrimeField(5), PrimeField(2**31 - 1)], ids=repr)
def test_radical_rank_matches_the_complement_oracle(corpus, field):
    radicals = []
    for system, group, psi, psi_prime, _ in corpus:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            module = build_specht_module(system, psi, psi_prime, field, group=group)
        dims = quotient_dimension(module)
        assert dims == quotient_dimension_by_complements(module)
        assert dims == quotient_dimension_by_sum(module)
        radicals.append(dims[1])
    assert tuple(radicals) == CORPUS_RADICALS[field.characteristic]


@st.composite
def prime_field_subspaces(draw):
    """A random subspace of F_p^n, p in {2, 3, 5} and n <= 12, spanned by up
    to n + 2 random vectors."""
    field = PrimeField(draw(st.sampled_from([2, 3, 5])))
    n = draw(st.integers(1, 12))
    entries = st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n)
    rows = draw(st.lists(entries, max_size=n + 2))
    return row_reduce(field, [from_dense(field, r) for r in rows], dim=n)


def _span(p, n, *rows):
    field = PrimeField(p)
    return row_reduce(field, [from_dense(field, r) for r in rows], dim=n)


@settings(deadline=None)
@given(prime_field_subspaces())
@example(_span(2, 5))  # k = 0
@example(_span(3, 3, [1, 0, 0], [0, 1, 0], [0, 0, 1]))  # k = n
@example(_span(2, 4, [1, 1, 0, 0]))  # the rows side, radical 1
@example(_span(5, 3, [1, 2, 0], [0, 0, 1]))  # the columns side, radical 1
def test_gram_radical_matches_the_sum_oracle(basis):
    # the radical reads only the basis and its field
    module = SpechtModuleData(space=None, field=basis.field, e_vec=None, basis=basis)
    assert quotient_dimension(module) == quotient_dimension_by_sum(module)


def test_radical_against_gram_rank_oracle(case_d4_rank3, case_d4_deg6):
    # rank of the Gram matrix of the basis equals dim S - dim radical
    for module in (case_d4_rank3.module, case_d4_deg6.module):
        rows = module.basis.rows
        gram = [[bilinear_form(QQ, u, v) for v in rows] for u in rows]
        denom_free = []
        for row in gram:
            scale = 1
            for x in row:
                scale = scale * x.denominator // _gcd(scale, x.denominator)
            denom_free.append([int(x * scale) for x in row])
        dims = quotient_dimension(module)
        assert bareiss_rank(denom_free) == dims[0] - dims[1]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_characteristic_two_radical(d4, w_d4):
    f2 = PrimeField(2)
    psi = closure_from_simples(d4, [parse_root(d4, t) for t in ("1000", "0100", "0001")])
    pp = closure_from_simples(d4, [parse_root(d4, "1110")])
    module = build_specht_module(d4, psi, pp, f2, group=w_d4)
    assert quotient_dimension(module) == (3, 1, 2)


# --------------------------------------------------------------------------
# matrices and characters


def test_matrix_of_identity(case_d4_rank3):
    module = case_d4_rank3.module
    m = matrix_of(module, identity(case_d4_rank3.system))
    k = module.dimension
    assert m == tuple(
        tuple(QQ.one if i == j else QQ.zero for j in range(k)) for i in range(k)
    )


def test_matrix_multiplicativity(case_d4_deg6):
    module = case_d4_deg6.module
    rng = random.Random(31)
    elems = module.space.group.elements
    for _ in range(10):
        a, b = rng.choice(elems), rng.choice(elems)
        assert matrix_of(module, compose(a, b)) == _matmul(
            matrix_of(module, a), matrix_of(module, b)
        )


def _matmul(x, y):
    k = len(x)
    return tuple(
        tuple(sum((x[i][m] * y[m][j] for m in range(k)), Fraction(0)) for j in range(k))
        for i in range(k)
    )


def test_matrix_on_generator_basis_d4(case_d4_rank3):
    sys = case_d4_rank3.system
    space = case_d4_rank3.space
    module = case_d4_rank3.module
    basis = [
        polytabloid(space, QQ, word_to_element(sys, w)) for w in ((), (3,), (2, 3))
    ]
    w = word_to_element(sys, (1, 3, 2))
    m = matrix_of(module, w, basis_vectors=basis)
    # column j holds the coordinates of w b_j
    assert [m[i][0] for i in range(3)] == [0, 1, -1]  # w e1 = e2 - e3
    assert [m[i][1] for i in range(3)] == [0, 0, -1]  # w e2 = -e3
    assert [m[i][2] for i in range(3)] == [1, 0, -1]  # w e3 = e1 - e3
    assert sum(m[i][i] for i in range(3)) == -1


def test_trace_is_basis_independent(case_d4_rank3):
    sys = case_d4_rank3.system
    space = case_d4_rank3.space
    module = case_d4_rank3.module
    basis = [
        polytabloid(space, QQ, word_to_element(sys, w)) for w in ((), (3,), (2, 3))
    ]
    rng = random.Random(43)
    for _ in range(10):
        w = rng.choice(space.group.elements)
        m = matrix_of(module, w, basis_vectors=basis)
        assert sum(m[i][i] for i in range(3)) == character_value(module, w)


@functools.cache
def _pair_module(name, field):
    return benchmark_pair_module(name, field)


def _random_basis(module, rng):
    """S's canonical rows under a random invertible change of basis with
    entries in -1..1: b_j = sum_i t_ji r_i, drawn until t is invertible."""
    field, rows, k, n = module.field, module.basis.rows, module.dimension, module.basis.dim
    while True:
        t = [[field.from_int(rng.randint(-1, 1)) for _ in rows] for _ in rows]
        bl = [
            vector(field, n, ((i, c * x) for c, r in zip(tj, rows) for i, x in r.entries.items()))
            for tj in t
        ]
        if row_reduce(field, bl, dim=n).rank == k:
            return bl


# an A5 example solves 180 systems of 60 equations in the oracle
@settings(deadline=None, max_examples=20)
@given(
    st.sampled_from(["D4-3", "D4-6", "F4", "A5"]),
    st.sampled_from(FIELDS + [PrimeField(5)]),
    st.integers(0, 2**32 - 1),
)
def test_matrix_in_a_random_basis_matches_the_solving_oracle(name, field, seed):
    # each column solved on its own, against one reduction of [P | Q]
    module, rng = _pair_module(name, field), random.Random(seed)
    bl = _random_basis(module, rng)
    system = module.space.system
    longer = tuple(rng.randint(1, system.rank) for _ in range(2 * system.rank))
    words = [simple_reflection(system, i) for i in range(1, system.rank + 1)]
    for w in words + [word_to_element(system, longer)]:
        assert matrix_of(module, w, basis_vectors=bl) == matrix_in_basis_by_solving(module, w, bl)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_matrix_in_a_given_basis_rebuilds_each_image(field):
    # column j read back as sum_i m[i][j] b_i is w b_j, for every w in W(D4)
    module = _pair_module("D4-6", field)
    space, n = module.space, module.basis.dim
    bl = _random_basis(module, random.Random(29))
    for w in space.group.elements:
        m = matrix_of(module, w, basis_vectors=bl)
        for j, b in enumerate(bl):
            items = ((t, m[i][j] * x) for i, bi in enumerate(bl) for t, x in bi.entries.items())
            assert vector(field, n, items) == act_vector(space, field, w, b)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_character_value_is_trace_of_matrix(corpus, field):
    # every element of W on A3, both D4 pairs and F4, given as an element and
    # as its word; G2 affords zero
    checked = 0
    for system, group, psi, psi_prime, _ in corpus:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            module = build_specht_module(system, psi, psi_prime, field, group=group)
        if module.dimension == 0:
            continue
        for w, word in zip(group, group.words):
            m = matrix_of(module, w)
            trace = functools.reduce(field.add, (m[i][i] for i in range(len(m))), field.zero)
            assert character_value(module, w) == trace
            assert character_value(module, word) == trace
        checked += 1
    assert checked == 4


def test_matrix_rejects_bad_bases(case_d4_rank3):
    module = case_d4_rank3.module
    space = case_d4_rank3.space
    with pytest.raises(ValueError):
        matrix_of(module, identity(case_d4_rank3.system), basis_vectors=[unit(4, 0)])
    with pytest.raises(ValueError):
        matrix_of(
            module,
            identity(case_d4_rank3.system),
            basis_vectors=[unit(4, 0), unit(4, 1), unit(4, 2)],
        )
    # the right size, but dependent
    b0, b1 = module.basis.rows[:2]
    with pytest.raises(ValueError):
        matrix_of(module, identity(case_d4_rank3.system), basis_vectors=[b0, b0, b1])


def test_zero_module_has_no_matrix(case_g2):
    with pytest.raises(ValueError):
        matrix_of(case_g2.module, identity(case_g2.system))
    assert character_value(case_g2.module, identity(case_g2.system)) == 0


def test_character_of_zero_module_rejects_element_of_another_system(case_g2, a3):
    assert case_g2.module.dimension == 0
    with pytest.raises(ValueError):
        character_value(case_g2.module, word_to_element(a3, (1,)))


def test_character_of_identity_is_dimension(case_d4_deg6):
    module = case_d4_deg6.module
    assert character_value(module, identity(case_d4_deg6.system)) == 6


def test_character_norm_values(case_d4_rank3, case_d4_deg6, case_g2):
    assert character_norm(case_d4_rank3.module) == 1
    assert character_norm(case_d4_deg6.module) == 1
    assert character_norm(case_g2.module) == 0


@pytest.mark.parametrize(
    "name,norm",
    [
        pytest.param(
            n, norm, id=n, marks=[pytest.mark.slow] if int(CORPUS[n][0][1:]) > 4 else []
        )
        for n, norm in (
            ("A3", 1), ("G2", 0), ("D4-3", 1), ("D4-6", 1), ("F4", 2), ("A5", 3), ("A6", 3)
        )
    ],
)
def test_character_norm_matches_the_word_fold(name, norm):
    module = benchmark_pair_module(name, QQ)
    assert character_norm(module) == character_norm_by_fold(module) == norm
    assert character_norm_by_words(module) == norm


@pytest.mark.parametrize("label", ["A3", "G2", "B3", "D4"])
def test_character_norm_matches_the_fold_on_every_small_pair(label):
    # every disjoint pair of subsystems of rank at most 2, useful or not
    system = build_root_system(label)
    group = generate_group(system)
    norms = set()
    for psi, pp in disjoint_pairs(system, max_size=2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            module = build_specht_module(system, psi, pp, QQ, group=group)
        norm = character_norm(module)
        assert norm == character_norm_by_fold(module), (psi.simples, pp.simples)
        norms.add(norm)
    # zero, irreducible and reducible modules all occur
    assert {0, 1} < norms


@pytest.mark.slow
def test_character_norm_at_rank_7_and_8():
    # |W| = 362880 and 645120, walked as |D_psi'| = 5040 and 80640 points
    # under the default bound: A8 (4,3,2) is irreducible, B7 (4,3) is not
    a8 = build_root_system("A8")
    psi, pp = (closure_from_simples(a8, roots) for roots in row_reading_pair((4, 3, 2)))
    assert character_norm(build_specht_module(a8, psi, pp, QQ)) == 1
    b7 = build_root_system("B7")
    psi, pp = (
        closure_from_simples(b7, [parse_root(b7, r) for r in text.split(",")])
        for text in ("1000000,0100000,0010000,0000100,0000010", "1111000,0111100,0011110")
    )
    assert character_norm(build_specht_module(b7, psi, pp, QQ)) == 8


def test_the_norm_fold_matches_the_word_fold_on_any_basis(case_d4_rank3):
    # the fold and the word fold both read the rows at m(w) for each w, so
    # the sums agree for any rows, invariant or not: fractional rows, one
    # row, no rows
    module = case_d4_rank3.module
    dim = len(module.space)
    rows = [[2, 1, 0, 3] + [0] * (dim - 4), [0, 3, 1, 0] + [0] * (dim - 4)]
    bases = [
        row_reduce(QQ, [from_dense(QQ, r) for r in rows]),
        row_reduce(QQ, [from_dense(QQ, rows[0])]),
        SubspaceBasis(QQ, dim, (), ()),
    ]
    assert [b.rank for b in bases] == [2, 1, 0]
    assert max(c.denominator for c in bases[0].rows[0].entries.values()) > 1
    for basis in bases:
        synthetic = SpechtModuleData(module.space, QQ, module.e_vec, basis)
        assert character_norm_by_fold(synthetic) == character_norm_by_words(synthetic)


@pytest.mark.slow
def test_a7_group_and_norm_memory():
    # W(A7) keeps its 40320 words and no element, and the norm holds one
    # tabloid permutation per letter of the current word, not a level of W
    shape = (4, 3, 1)
    system = build_root_system("A7")
    psi, pp = (closure_from_simples(system, roots) for roots in row_reading_pair(shape))
    tracemalloc.start()
    try:
        group = generate_group(system)
        kept = tracemalloc.get_traced_memory()[0]
        module = build_specht_module(system, psi, pp, QQ, group=group)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        norm = character_norm(module)
        norm_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert norm == 1
    assert kept < 10 * 2**20
    assert norm_peak < 2 * 2**20


def test_character_norm_rejects_positive_characteristic(d4, w_d4):
    f2 = PrimeField(2)
    psi = closure_from_simples(d4, [parse_root(d4, t) for t in ("1000", "0100", "0001")])
    pp = closure_from_simples(d4, [parse_root(d4, "1110")])
    module = build_specht_module(d4, psi, pp, f2, group=w_d4)
    with pytest.raises(ValueError):
        character_norm(module)


def test_character_is_a_class_function(case_d4_rank3):
    module = case_d4_rank3.module
    rng = random.Random(77)
    elems = module.space.group.elements
    for _ in range(25):
        w = rng.choice(elems)
        g = rng.choice(elems)
        conj = compose(compose(g, w), inverse(g))
        assert character_value(module, conj) == character_value(module, w)


# --------------------------------------------------------------------------
# formatting


def test_vector_formatting(case_d4_rank3):
    space = case_d4_rank3.space
    e = polytabloid(space, QQ, identity(case_d4_rank3.system))
    assert (
        format_module_vector(space, QQ, e)
        == "+{1000,0100,0001;1110} -{0100,0010,1101;-1000}"
    )
    assert format_module_vector(space, QQ, SparseVector(4, {})) == "0"
    scaled = SparseVector(4, {1: Fraction(3, 2)})
    assert format_module_vector(space, QQ, scaled) == "+(3/2)*{1000,0110,0001;1100}"

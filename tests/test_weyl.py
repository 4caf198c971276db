import math
import random
import tracemalloc
from operator import itemgetter

import pytest

from oracles import bfs_by_compose, bfs_group_words, listed, load_workloads, weyl_group
from weylspecht.rootsys import build_root_system, negate, parse_root
from weylspecht.subsystem import (
    closure_from_simples,
    distinguished_reps,
    orthogonal_complement,
)
from weylspecht.weyl import (
    GroupLimitError,
    apply_to_root,
    compose,
    descent_word,
    elements_of,
    coset_walk,
    descent_walk,
    fold_preorder,
    fold_walk,
    generate_group,
    group_order,
    identity,
    inverse,
    length,
    reflection_in,
    sign,
    simple_reflection,
    subgroup_generated,
    word_order,
    word_to_element,
)

CLASSICAL_ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "A4": 120,
    "B1": 2,
    "B2": 8,
    "B3": 48,
    "B4": 384,
    "C1": 2,
    "C2": 8,
    "C3": 48,
    "C4": 384,
    "D2": 4,
    "D3": 24,
    "D4": 192,
    "G2": 12,
    "F4": 1152,
}

SLOW_ORDERS = {"A5": 720, "A6": 5040, "B5": 3840, "C5": 3840, "D5": 1920}


@pytest.mark.parametrize("label,order", sorted(CLASSICAL_ORDERS.items()))
def test_group_orders(label, order):
    system = build_root_system(label)
    assert len(generate_group(system)) == order


@pytest.mark.slow
@pytest.mark.parametrize("label,order", sorted(SLOW_ORDERS.items()))
def test_group_orders_rank_five_plus(label, order):
    system = build_root_system(label)
    assert len(generate_group(system)) == order


# every supported type up to rank 6, with A7; rank 5 and up generates slowly
ORDER_LABELS = [
    f"{series}{n}" for series in "ABCD" for n in range(2 if series == "D" else 1, 7)
] + ["G2", "F4", "A7"]


@pytest.mark.parametrize(
    "label",
    [pytest.param(x, marks=pytest.mark.slow) if int(x[1:]) > 4 else x for x in ORDER_LABELS],
)
def test_group_order_from_the_degrees_counts_w(label):
    system = build_root_system(label)
    assert group_order(system) == len(generate_group(system))


@pytest.mark.parametrize("series", "ABCD")
def test_group_order_beyond_generation(series):
    # the classical formulas in the ranks the default limit refuses to generate
    for n in (7, 8):
        formula = {
            "A": math.factorial(n + 1),
            "B": 2**n * math.factorial(n),
            "C": 2**n * math.factorial(n),
            "D": 2 ** (n - 1) * math.factorial(n),
        }[series]
        assert group_order(build_root_system(f"{series}{n}")) == formula


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4", "F4"])
def test_descent_word_spells_every_element(label):
    system = build_root_system(label)
    spell = descent_word(system)
    for w in weyl_group(system):
        word = spell(w.perm)
        assert word_to_element(system, word) == w
        assert len(word) == length(system, w)


def test_simple_reflection_negates_its_root(a3):
    t1 = simple_reflection(a3, 1)
    a1 = a3.simple_roots()[0]
    assert apply_to_root(a3, t1, a1) == negate(a1)


def test_simple_reflection_moves_neighbour(a3):
    t2 = simple_reflection(a3, 2)
    assert apply_to_root(a3, t2, parse_root(a3, "100")) == parse_root(a3, "110")


def test_reflections_are_involutions(a3):
    for i in (1, 2, 3):
        t = simple_reflection(a3, i)
        assert compose(t, t) == identity(a3)


def test_generator_index_range(a3):
    with pytest.raises(IndexError):
        simple_reflection(a3, 0)
    with pytest.raises(IndexError):
        simple_reflection(a3, 4)


def test_word_applies_rightmost_first(a3):
    w = word_to_element(a3, (1, 2))
    assert apply_to_root(a3, w, parse_root(a3, "100")) == parse_root(a3, "010")


def test_word_images_d4(d4):
    w = word_to_element(d4, (1, 2, 3))
    images = [
        apply_to_root(d4, w, parse_root(d4, t)) for t in ("1000", "0100", "0001")
    ]
    assert images == [parse_root(d4, t) for t in ("0100", "0010", "1101")]
    assert apply_to_root(d4, w, parse_root(d4, "1110")) == (-1, 0, 0, 0)


def test_empty_word_is_identity(a3):
    assert word_to_element(a3, ()) == identity(a3)


def test_word_index_out_of_range(a3):
    with pytest.raises(IndexError):
        word_to_element(a3, (1, 5))


def test_inverse_and_compose(a3, w_a3):
    e = identity(a3)
    assert inverse(e) == e
    for w in w_a3:
        assert compose(w, inverse(w)) == e
        assert compose(inverse(w), w) == e


def test_inverse_of_product(a3):
    a = word_to_element(a3, (1, 2))
    b = word_to_element(a3, (2, 3))
    assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))


def test_mixed_systems_rejected(a3, g2):
    with pytest.raises(ValueError):
        compose(identity(a3), identity(g2))
    with pytest.raises(ValueError):
        apply_to_root(g2, identity(a3), (1, 0))


def test_g2_word_of_order_two(g2):
    w = word_to_element(g2, (2, 1, 2, 1, 2))
    assert compose(w, w) == identity(g2)
    assert sign(g2, w) == -1


def test_identity_first_and_words_reduced(a3, w_a3, g2, w_g2, d4, w_d4):
    for system, group in ((a3, w_a3), (g2, w_g2), (d4, w_d4)):
        assert group[0] == identity(system)
        assert group.words[0] == ()
        for w, word in zip(group.elements, group.words):
            assert word_to_element(system, word) == w
            assert len(word) == length(system, w)


def test_generation_is_deterministic(a3, w_a3):
    again = listed(generate_group(a3))
    assert again.elements == w_a3.elements
    assert again.words == w_a3.words
    assert again == w_a3
    # equal elements built apart compare and hash equal, and carry no dict
    for w, v in zip(again, w_a3):
        assert w is not v and w == v and hash(w) == hash(v)
    assert len(set(again) | set(w_a3)) == len(w_a3)
    assert not hasattr(w_a3[1], "__dict__")
    assert w_a3[1] != w_a3[2]


def test_group_limit(a3):
    with pytest.raises(GroupLimitError):
        generate_group(a3, limit=10)


@pytest.mark.parametrize("label,order", [("A3", 24), ("B3", 48), ("G2", 12), ("D4", 192)])
def test_group_limit_is_the_order(label, order):
    system = build_root_system(label)
    assert len(generate_group(system, limit=order)) == order
    text = f"coset walk exceeds the limit of {order - 1} points"
    with pytest.raises(GroupLimitError, match=text):
        generate_group(system, limit=order - 1)


# |W| up to 46080, and past 100000 (slow): D7, B7, C7 and A8
DESCENT_WALK_LABELS = [
    f"{series}{n}" for series in "ABCD" for n in range(2 if series == "D" else 1, 8)
] + ["G2", "F4", "A8"]


@pytest.mark.parametrize(
    "label",
    [
        pytest.param(x, marks=pytest.mark.slow) if x in ("D7", "B7", "C7", "A8") else x
        for x in DESCENT_WALK_LABELS
    ],
)
def test_descent_walk_gives_the_bfs_words(label):
    # the depth-first descent walk lists the words of the breadth-first
    # walk, and its preorder is theirs sorted by reversed word
    system = build_root_system(label)
    group = generate_group(system, limit=math.inf)
    prepend = [lambda u, a=a: (a,) + u for a in range(1, system.rank + 1)]
    folded = (w for _, w in fold_preorder(group.preorder, prepend, ()))
    words = sorted(folded, key=lambda w: (len(w), w))
    assert all(map(tuple.__eq__, words, bfs_group_words(system)))
    if group_order(system) <= 50000:
        words.sort(key=lambda w: w[::-1])
        assert group.preorder == (bytes(map(len, words)), bytes(w[0] if w else 0 for w in words))
    assert len(words) == len(group) == group_order(system)


def test_a7_walk_memory():
    # W(A7) keeps two bytes per element, and the walk holds one inverse
    # root permutation per depth, not the elements seen
    system = build_root_system("A7")
    system.simple_reflection_perms, system.simple_roots()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = generate_group(system)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(group) == 40320
    assert kept < 2**18
    assert peak < 2**20


COMPOSE_BFS_LABELS = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
] + [pytest.param(label, marks=pytest.mark.slow) for label in ("A5", "B5", "D5", "A6")]


@pytest.mark.parametrize("label", COMPOSE_BFS_LABELS)
def test_generation_matches_compose_bfs(label):
    system = build_root_system(label)
    group = listed(generate_group(system))
    gens = [simple_reflection(system, i) for i in range(1, system.rank + 1)]
    elements, words = bfs_by_compose(system, gens)
    assert group.elements == elements
    assert group.words == words


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "D4", "F4", "A5"])
def test_word_order_is_the_bfs_order(label):
    # greedy left descent spells the recorded lex-least reduced word, so the
    # W-free key sorts W into its BFS order
    system = build_root_system(label)
    group = weyl_group(system)
    key = word_order(system)
    for w, word in zip(group, group.words):
        assert key(w) == (length(system, w), word)
    shuffled = list(group)
    random.Random(label).shuffle(shuffled)
    assert sorted(shuffled, key=key) == list(group)


def _corpus_root_sets():
    # J, J' and their orthogonal complements for every pair of the corpus
    for name, (ambient, j_text, jp_text) in sorted(load_workloads().PAIRS.items()):
        system = build_root_system(ambient)
        for tag, text in (("J", j_text), ("Jp", jp_text)):
            psi = closure_from_simples(
                system, [parse_root(system, t) for t in text.split(",")]
            )
            yield pytest.param(ambient, psi.simples, id=f"{name}-{tag}")
            perp = orthogonal_complement(system, psi).simples
            yield pytest.param(ambient, perp, id=f"{name}-{tag}-perp")
    # one root: the walk's points have a single entry
    for label in ("A1", "B1", "C1"):
        yield pytest.param(label, build_root_system(label).simple_roots(), id=label)


@pytest.mark.parametrize("ambient,roots", list(_corpus_root_sets()))
def test_subgroup_matches_compose_bfs(ambient, roots):
    system = build_root_system(ambient)
    refl = [reflection_in(system, r) for r in sorted(set(roots))]
    elements, words = bfs_by_compose(system, refl)
    group = listed(subgroup_generated(system, roots))
    assert (group.elements, group.words) == (elements, words)


def _walks():
    # the walks of W(A3), W(B3), W(G2), and D_psi' of the D4-6 pair
    for label in ("A3", "B3", "G2"):
        system = build_root_system(label)
        seed = tuple(system.index[a] for a in system.simple_roots())
        walk = tuple(coset_walk(system.simple_reflection_perms, seed))
        yield pytest.param(system, walk, id=label)
    d4 = build_root_system("D4")
    pp = closure_from_simples(d4, [parse_root(d4, t) for t in ("0001", "0110")])
    yield pytest.param(d4, tuple(distinguished_reps(d4, pp)), id="D4-6-Dpsi")


@pytest.mark.parametrize("system,walk", list(_walks()))
def test_fold_walk_steps_each_word_from_its_parent(system, walk):
    # one step per nonempty word, and each value is the fold of its whole word
    taken = []

    def left_step(s):
        def step(p):
            taken.append(s)
            return itemgetter(*p)(s)

        return step

    gens = system.simple_reflection_perms
    words = [word for _, word, _ in walk]
    folded = list(fold_walk(walk, [left_step(s) for s in gens], identity(system).perm))
    assert [word for word, _ in folded] == words
    assert [p for _, p in folded] == [word_to_element(system, w).perm for w in words]
    assert len(taken) == len(words) - 1
    assert elements_of(system, gens, walk) == tuple(word_to_element(system, w) for w in words)


def _right_steps(system, taken):
    # the value of a node a u is that of u, then tau_a: p o s is itemgetter(*s)(p)
    def right_step(s):
        def step(p):
            taken.append(s)
            return itemgetter(*s)(p)

        return step

    return [right_step(s) for s in system.simple_reflection_perms]


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4"])
def test_fold_preorder_steps_each_node_from_its_parent(label):
    # one step per node past the root, and with the right steps each node
    # of a word w gets the fold of w reversed, the permutation of w^-1
    system = build_root_system(label)
    group = weyl_group(system)
    prepend = [lambda u, a=a: (a,) + u for a in range(1, system.rank + 1)]
    words = [w for _, w in fold_preorder(group.preorder, prepend, ())]
    assert sorted(words, key=lambda w: (len(w), w)) == list(group.words)
    taken = []
    folded = list(fold_preorder(group.preorder, _right_steps(system, taken), identity(system).perm))
    assert [d for d, _ in folded] == list(map(len, words)) == list(group.preorder[0])
    assert [p for _, p in folded] == [word_to_element(system, w[::-1]).perm for w in words]
    assert len(taken) == len(words) - 1


@pytest.mark.parametrize(
    "depths", [b"\0\1\3", b"\1", b"", b"\0\1\0"], ids=["jump", "no-root", "empty", "two-roots"]
)
def test_fold_preorder_rejects_a_node_without_its_parent(a3, depths):
    with pytest.raises(ValueError):
        list(fold_preorder((depths, b"\1" * len(depths)), _right_steps(a3, []), identity(a3).perm))


def test_length_and_sign_basics(a3, w_a3):
    e = identity(a3)
    assert length(a3, e) == 0 and sign(a3, e) == 1
    for i in (1, 2, 3):
        t = simple_reflection(a3, i)
        assert length(a3, t) == 1 and sign(a3, t) == -1
    for w in w_a3:
        assert length(a3, w) == length(a3, inverse(w))


def test_sign_is_multiplicative(d4, w_d4):
    rng = random.Random(97)
    elems = w_d4.elements
    for _ in range(500):
        a = rng.choice(elems)
        b = rng.choice(elems)
        assert sign(d4, compose(a, b)) == sign(d4, a) * sign(d4, b)


def test_subgroup_single_reflection(g2):
    a1 = g2.simple_roots()[0]
    sub = listed(subgroup_generated(g2, [a1]))
    assert len(sub) == 2
    assert identity(g2) in sub


def test_subgroup_long_roots_g2(g2, w_g2):
    gens = [parse_root(g2, "01"), parse_root(g2, "31")]
    sub = listed(subgroup_generated(g2, gens))
    assert len(sub) == 6
    expected_words = [(), (2,), (1, 2, 1), (2, 1, 2, 1), (1, 2, 1, 2), (2, 1, 2, 1, 2)]
    expected = {word_to_element(g2, w).perm for w in expected_words}
    assert {w.perm for w in sub} == expected


def test_subgroup_empty_generators(a3):
    group = listed(subgroup_generated(a3, []))
    assert (group.elements, group.words) == ((identity(a3),), ((),))


def test_subgroup_limit(d4):
    simples = d4.simple_roots()
    with pytest.raises(GroupLimitError):
        subgroup_generated(d4, simples, limit=10)


def test_subgroup_of_a_root_list_that_is_no_simple_system_raises():
    # alpha_1 and alpha_1 + alpha_2 are acute; a negative root is no simple root
    a2 = build_root_system("A2")
    for texts in (("10", "11"), ("10", "-01")):
        with pytest.raises(ValueError, match="simple system"):
            subgroup_generated(a2, [parse_root(a2, t) for t in texts])


def _corpus_column_systems():
    for name, (ambient, _, jp_text) in sorted(load_workloads().PAIRS.items()):
        system = build_root_system(ambient)
        pp = closure_from_simples(system, [parse_root(system, t) for t in jp_text.split(",")])
        yield pytest.param(system, pp, id=name)


@pytest.mark.parametrize("system,pp", list(_corpus_column_systems()))
def test_the_descent_walk_avoiding_jp_is_d_psi_prime(system, pp):
    # |W : W(psi')| points, the elements that `distinguished_reps` reaches
    gens = system.simple_reflection_perms
    walk = descent_walk(system, system.simple_roots(), gens, pp.simples)
    assert len(walk[0]) == group_order(system) // len(subgroup_generated(system, pp.simples))
    steps = [lambda p, s=s: itemgetter(*p)(s) for s in gens]
    folded = {p for _, p in fold_preorder(walk, steps, identity(system).perm)}
    listed = elements_of(system, gens, tuple(distinguished_reps(system, pp)))
    assert folded == {d.perm for d in listed}
    with pytest.raises(GroupLimitError):
        descent_walk(system, system.simple_roots(), gens, pp.simples, limit=len(walk[0]) - 1)


def test_permutations_commute_with_negation(a3, w_a3, g2, w_g2):
    for system, group in ((a3, w_a3), (g2, w_g2)):
        pc = system.positive_count
        for w in group:
            for i in range(pc):
                assert w.perm[i + pc] == (w.perm[i] + pc) % (2 * pc)

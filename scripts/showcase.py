#!/usr/bin/env python3
"""Run the three showcase constructions end to end and print full reports.

Covers an A3 pair with a 2-dimensional module, a G2 pair whose polytabloid
collapses to zero, and the two D4 pairs affording irreducible characters of
degrees 3 and 6. Everything is exact; the output is deterministic.
"""

import warnings

from weylspecht import (
    build_root_system,
    build_specht_module,
    character_norm,
    character_value,
    closure_from_simples,
    generate_group,
    is_good_subsystem,
    is_useful_subsystem,
    matrix_of,
    parse_root,
    polytabloid,
    quotient_dimension,
    submodule_theorem_probe,
    vanishing_obstruction,
    word_to_element,
)
from weylspecht.exactlin import QQ
from weylspecht.specht import format_module_vector, format_tabloid
from weylspecht.weyl import identity, word_order

CASES = [
    ("A3", ("100", "001"), ("110",), ()),
    ("G2", ("10",), ("01", "31"), ()),
    ("D4", ("1000", "0100", "0001"), ("1110",), (1, 3, 2)),
    ("D4", ("1000", "0100"), ("0001", "0110"), (1, 3, 2)),
]


def word_text(word):
    return " ".join(map(str, word)) if word else "e"


def run_case(label, j_texts, jp_texts, char_word):
    system = build_root_system(label)
    group = generate_group(system)
    psi = closure_from_simples(system, [parse_root(system, t) for t in j_texts])
    pp = closure_from_simples(system, [parse_root(system, t) for t in jp_texts])

    print("=" * 72)
    print(f"{label}: J = {','.join(j_texts)}  J' = {','.join(jp_texts)}")
    print(f"|W| = {len(group)}  psi {psi.label} ({psi.size} roots)  psi' {pp.label}")

    useful = is_useful_subsystem(system, psi, pp)
    good = is_good_subsystem(system, psi, pp)
    print(f"useful sub-system: {useful}   good sub-system: {good.is_good}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        module = build_specht_module(system, psi, pp, QQ, group=group)
    space = module.space
    print(f"|N(psi)| = {len(space.n_psi)}   tabloids = {len(space)}")
    for t in space:
        print(f"   {word_text(t.rep_word):<8} {format_tabloid(space, t)}")

    e_vec = polytabloid(space, QQ, identity(system))
    print(f"e_{{J,J'}} = {format_module_vector(space, QQ, e_vec)}")
    dims = quotient_dimension(module)
    print(f"dim S = {dims[0]}   dim radical = {dims[1]}   dim D = {dims[2]}")

    witness = vanishing_obstruction(system, psi, pp)
    if witness is not None:
        print(f"vanishing witness: {word_text(word_order(system)(witness)[1])}")

    if module.dimension and char_word:
        w = word_to_element(system, char_word)
        m = matrix_of(module, w)
        print(f"matrix of {word_text(char_word)} on the echelon basis:")
        for row in m:
            print("   [" + "  ".join(f"{str(x):>4}" for x in row) + "]")
        print(f"trace: {character_value(module, w)}")

    if module.dimension:
        print(f"character norm: {character_norm(module)}")
        probe = submodule_theorem_probe(module, trials=20, seed=1729)
        print(
            f"submodule probe: {probe.trials} trials, "
            f"{len(probe.violations)} violations"
        )


def main():
    for case in CASES:
        run_case(*case)
    print("=" * 72)


if __name__ == "__main__":
    main()

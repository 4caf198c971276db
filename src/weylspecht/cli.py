"""Command line front end: root systems, tabloid families, module reports.

Exit codes: 0 success, 1 stdout closed early, 2 unparsable input, 3 a
requested check failed, 4 group-size limit exceeded. Reports go to stdout,
diagnostics to stderr; identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import specht, verify
from .exactlin import echelon_insert, field_by_name, field_name
from .rootsys import build_root_system, format_root, parse_root, root_system_to_json
from .subsystem import closure_from_simples, distinguished_reps, subsystem_to_json
from .weyl import DEFAULT_GROUP_LIMIT, generate_group, group_order, word_order

SCHEMA = "weyl-specht/1"
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3
EXIT_GROUP_LIMIT = 4


class CommandError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _system(label: str):
    try:
        return build_root_system(label)
    except ValueError as exc:
        raise CommandError(str(exc)) from None


def _simples(system, text: str):
    roots = []
    for piece in text.split(","):
        try:
            roots.append(parse_root(system, piece, if_not_root="error"))
        except ValueError as exc:
            raise CommandError(str(exc)) from None
    return roots


def _closure(system, roots):
    try:
        return closure_from_simples(system, roots)
    except ValueError as exc:
        raise CommandError(str(exc)) from None


def _order(system, limit: int) -> int:
    """|W| from the degrees, refused above the limit before any work."""
    if limit < 1:
        raise CommandError(f"--limit must be at least 1, got {limit}")
    order = group_order(system)
    if order > limit:
        raise CommandError(
            f"group of {system.label} exceeds the limit of {limit} elements",
            code=EXIT_GROUP_LIMIT,
        )
    return order


def _word_text(word) -> str:
    return " ".join(map(str, word)) if word else "e"


def _parse_word(system, text: str):
    parts = text.split()
    if not parts:
        return ()
    try:
        word = tuple(int(p) for p in parts)
    except ValueError:
        raise CommandError(f"malformed word {text!r}") from None
    for i in word:
        if not 1 <= i <= system.rank:
            raise CommandError(f"generator index {i} out of range 1..{system.rank}")
    return word


def _collect_words(system, char_args):
    words = []
    for arg in char_args or ():
        if os.path.isfile(arg):
            try:
                with open(arg, encoding="utf-8") as fh:
                    lines = fh.readlines()
            except (OSError, UnicodeDecodeError) as exc:
                raise CommandError(f"cannot read --char file {arg}: {exc}") from None
            for line in lines:
                line = line.split("#", 1)[0].strip()
                if line:
                    words.append(_parse_word(system, line))
        else:
            words.append(_parse_word(system, arg))
    return tuple(words)


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def cmd_roots(args) -> int:
    system = _system(args.type)
    if args.json:
        doc = {"schema": SCHEMA}
        doc.update(root_system_to_json(system))
        _emit(doc)
        return EXIT_OK
    pc = system.positive_count
    print(
        f"root system {system.label}: rank {system.rank}, "
        f"{len(system.roots)} roots ({pc} positive)"
    )
    print("simple roots: " + " ".join(format_root(system, r) for r in system.simple_roots()))
    print("positive roots: " + " ".join(format_root(system, r) for r in system.roots[:pc]))
    print("gram matrix:")
    for row in system.gram:
        print("  " + " ".join(str(x) for x in row))
    return EXIT_OK


def cmd_tabloids(args) -> int:
    system = _system(args.type)
    order = _order(system, args.limit)
    psi = _closure(system, _simples(system, args.J))
    space = specht.enumerate_tabloids(system, psi)
    if args.json:
        psi_doc = subsystem_to_json(system, psi)
        psi_doc["normalizer_order"] = order // len(space)
        psi_doc["index"] = len(space)
        doc = {
            "schema": SCHEMA,
            "ambient": system.label,
            "psi": psi_doc,
            "count": len(space),
            "tabloids": [
                {"word": list(t.rep_word), "display": specht.format_tabloid(space, t)}
                for t in space
            ],
        }
        _emit(doc)
        return EXIT_OK
    print(f"ambient {system.label}: |W| = {order}")
    print(
        f"psi {psi.label}: J = {','.join(format_root(system, r) for r in psi.simples)}, "
        f"size {psi.size}, |N(psi)| = {order // len(space)}, index {len(space)}"
    )
    print(f"tabloids ({len(space)}):")
    width = max((len(_word_text(t.rep_word)) for t in space), default=1)
    for t in space:
        print(f"  {_word_text(t.rep_word):<{width}}  {specht.format_tabloid(space, t)}")
    return EXIT_OK


def _independent_generators(module, limit: int):
    # the first translates d e_{J,J'}, d in D_psi', that are independent,
    # each with the word of d; the fold stops at the dim-th, so later
    # translates are never computed
    space, field, e_vec = module.space, module.field, module.e_vec
    group = generate_group(space.system, limit=limit)
    by_pivot: dict = {}
    picked = []
    for d in distinguished_reps(space.system, space.psi_prime, group):
        word = group.word_of(d)
        vec = specht.act_vector(space, field, word, e_vec)
        if echelon_insert(field, by_pivot, vec):
            picked.append((word, vec))
            if len(picked) == module.dimension:
                break
    return picked


def cmd_specht(args) -> int:
    system = _system(args.type)
    order = _order(system, args.limit)
    psi = _closure(system, _simples(system, args.J))
    psi_prime = _closure(system, _simples(system, args.Jp))
    if psi.roots & psi_prime.roots:
        raise CommandError("J' must generate a subsystem disjoint from psi")
    try:
        field = field_by_name(args.field)
    except ValueError as exc:
        raise CommandError(str(exc)) from None

    checks = []
    for name in filter(None, (args.check or "").split(",")):
        if name not in ("useful", "good", "probe"):
            raise CommandError(f"unknown check {name!r}")
        checks.append(name)
    if args.probe_trials < 1:
        raise CommandError(f"--probe-trials must be at least 1, got {args.probe_trials}")
    words = _collect_words(system, args.char)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        module = specht.build_specht_module(system, psi, psi_prime, field)
    space = module.space
    useful = space.useful
    e_vec = module.e_vec
    good = verify.good_from_space(space)
    missing = set(good.witnesses)
    good_words = [t.rep_word for t in space if t.rep in missing]
    witness = verify.obstruction_from_space(space)
    witness_word = word_order(system)(witness)[1] if witness is not None else None
    probe = None
    if "probe" in checks:
        probe = verify.submodule_theorem_probe(
            module, trials=args.probe_trials, seed=args.probe_seed
        )

    failed = False
    if "useful" in checks and not useful:
        failed = True
    if "good" in checks and not good.is_good:
        failed = True
    if probe is not None and not probe.ok:
        failed = True

    if args.json:
        doc = {"schema": SCHEMA}
        doc.update(specht.specht_report(module, sample_words=words))
        doc["useful"] = useful
        doc["good"] = good.is_good
        check_doc = {
            "vanishing_witness": list(witness_word) if witness_word is not None else None
        }
        if "useful" in checks:
            check_doc["useful"] = useful
        if "good" in checks:
            check_doc["good"] = {
                "good": good.is_good,
                "witnesses": [list(word) for word in good_words],
            }
        if probe is not None:
            check_doc["probe"] = {
                "trials": probe.trials,
                "seed": probe.seed,
                "characteristic": probe.characteristic,
                "violations": list(probe.violations),
            }
        doc["checks"] = check_doc
        _emit(doc)
        return EXIT_CHECK_FAILED if failed else EXIT_OK

    print(f"ambient {system.label}: |W| = {order}")
    print(
        f"psi {psi.label}: J = {','.join(format_root(system, r) for r in psi.simples)}, "
        f"|N(psi)| = {order // len(space)}"
    )
    print(
        f"psi' {psi_prime.label}: J' = "
        f"{','.join(format_root(system, r) for r in psi_prime.simples)}, "
        f"|W(psi')| = {len(space.col_group)}"
    )
    print(f"field {field_name(field)}")
    print(f"tabloids: {len(space)}")
    dims = specht.quotient_dimension(module)
    print(f"dim S = {dims[0]}, dim radical = {dims[1]}, dim D = {dims[2]}")
    print(f"useful sub-system: {'yes' if useful else 'no'}")
    print(f"good sub-system: {'yes' if good.is_good else 'no'}")
    print(f"e_{{J,J'}} = {specht.format_module_vector(space, field, e_vec)}")
    if module.dimension:
        print("independent generators:")
        for word, vec in _independent_generators(module, args.limit):
            print(f"  {_word_text(word)} | {specht.format_module_vector(space, field, vec)}")
    if witness_word is not None:
        print(f"vanishing witness: {_word_text(witness_word)}")
    if words:
        print("character values:")
        for word in words:
            tr = specht.character_value(module, word)
            print(f"  psi({_word_text(word)}) = {field.format(tr)}")
    if checks:
        print("checks:")
        if "useful" in checks:
            print(f"  useful: {'pass' if useful else 'FAIL'}")
        if "good" in checks:
            line = f"  good: {'pass' if good.is_good else 'FAIL'}"
            if good_words:
                line += f" (missing cosets: {' '.join(map(_word_text, good_words))})"
            elif good.reason:
                line += f" ({good.reason})"
            print(line)
        if probe is not None:
            print(
                f"  probe: trials={probe.trials} seed={probe.seed} "
                f"violations={len(probe.violations)} "
                f"{'pass' if probe.ok else 'FAIL'}"
            )
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylspecht",
        description="Exact Specht-module computations for Weyl groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="print a root system")
    p_roots.add_argument("--type", required=True, help="type tag, e.g. A3, D4, G2")
    p_roots.add_argument("--json", action="store_true")
    p_roots.set_defaults(func=cmd_roots)

    p_tab = sub.add_parser("tabloids", help="enumerate the tabloid family")
    p_tab.add_argument("--type", required=True)
    p_tab.add_argument("--J", required=True, help="comma-separated simple roots")
    p_tab.add_argument("--json", action="store_true")
    p_tab.add_argument("--limit", type=int, default=DEFAULT_GROUP_LIMIT)
    p_tab.set_defaults(func=cmd_tabloids)

    p_sp = sub.add_parser("specht", help="build the module and run checks")
    p_sp.add_argument("--type", required=True)
    p_sp.add_argument("--J", required=True, help="comma-separated simple roots")
    p_sp.add_argument("--Jp", required=True, help="comma-separated simple roots of J'")
    p_sp.add_argument("--field", default="Q", help="Q or F<p>")
    p_sp.add_argument("--check", default="", help="comma list of useful,good,probe")
    p_sp.add_argument(
        "--char",
        action="append",
        help="word like '1 3 2', or a file with one word per line; repeatable",
    )
    p_sp.add_argument("--json", action="store_true")
    p_sp.add_argument("--limit", type=int, default=DEFAULT_GROUP_LIMIT)
    p_sp.add_argument("--probe-trials", type=int, default=50)
    p_sp.add_argument("--probe-seed", type=int, default=verify.DEFAULT_PROBE_SEED)
    p_sp.set_defaults(func=cmd_specht)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at interpreter exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

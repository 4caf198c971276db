"""Command line front end: root systems, tabloid families, module reports.

Exit codes: 0 success, 1 stdout closed early, 2 unparsable input, 3 a
requested check failed, 4 a walk exceeded the limit. Reports go to stdout,
diagnostics to stderr; identical invocations print identical bytes.

Every command builds a root system, so only `rootsys` is loaded with this
module; each command imports the rest of what it runs in its own body, so
`roots` loads no other module of the package and `tabloids` never loads
`verify`. So that the parser loads nothing, `--limit` and `--probe-seed`
default to None, which leaves the library's defaults to apply.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

from .rootsys import build_root_system, format_root, parse_root

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


def _subsystem(system, roots):
    from .subsystem import closure_from_simples

    try:
        return closure_from_simples(system, roots)
    except ValueError as exc:
        raise CommandError(str(exc)) from None


def _walks(command):
    # a command whose walks stop at --limit points, at least 1, or at the
    # library's default; a walk past it exits 4 before any output
    def run(args):
        from .weyl import GroupLimitError

        if args.limit is not None and args.limit < 1:
            raise CommandError(f"--limit must be at least 1, got {args.limit}")
        try:
            return command(args, {} if args.limit is None else {"limit": args.limit})
        except GroupLimitError as exc:
            raise CommandError(str(exc), code=EXIT_GROUP_LIMIT) from None
    return run


def _word_text(word) -> str:
    return " ".join(map(str, word)) if word else "e"


def _parse_word(system, text: str):
    # the reports write the empty word as e
    parts = text.split()
    if parts in ([], ["e"]):
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
    import json

    print(json.dumps({"schema": SCHEMA, **doc}, indent=2))


def cmd_roots(args) -> int:
    system = _system(args.type)
    gram = [[str(x) for x in row] for row in system.gram]
    pc = system.positive_count
    if args.json:
        # gram entries as exact "p/q" strings, roots as arrays
        roots = [list(r) for r in system.roots]
        _emit({"label": system.label, "rank": system.rank, "gram": gram, "roots": roots,
               "positive_count": pc})
        return EXIT_OK
    print(
        f"root system {system.label}: rank {system.rank}, "
        f"{len(system.roots)} roots ({pc} positive)"
    )
    print("simple roots: " + " ".join(format_root(system, r) for r in system.simple_roots()))
    print("positive roots: " + " ".join(format_root(system, r) for r in system.roots[:pc]))
    print("gram matrix:")
    for row in gram:
        print("  " + " ".join(row))
    return EXIT_OK


def _simples_text(system, psi) -> list:
    return [format_root(system, r) for r in psi.simples]


@_walks
def cmd_tabloids(args, bound) -> int:
    from . import specht
    from .weyl import group_order

    system = _system(args.type)
    order = group_order(system)
    psi = _subsystem(system, _simples(system, args.J))
    space = specht.enumerate_tabloids(system, psi, **bound)
    J = _simples_text(system, psi)
    rows = [(t.rep_word, specht.format_tabloid(space, t)) for t in space]
    index = len(space)
    if args.json:
        _emit({
            "ambient": system.label,
            "psi": {"label": psi.label, "simples": J, "size": psi.size,
                    "normalizer_order": order // index, "index": index},
            "count": index,
            "tabloids": [{"word": list(word), "display": display} for word, display in rows],
        })
        return EXIT_OK
    print(f"ambient {system.label}: |W| = {order}")
    print(
        f"psi {psi.label}: J = {','.join(J)}, "
        f"size {psi.size}, |N(psi)| = {order // index}, index {index}"
    )
    print(f"tabloids ({index}):")
    width = max((len(_word_text(word)) for word, _ in rows), default=1)
    for word, display in rows:
        print(f"  {_word_text(word):<{width}}  {display}")
    return EXIT_OK


def _independent_generators(module):
    # the first translates d e_{J,J'}, d in D_psi', that are independent,
    # each with the word of d; the listing stops at the dim-th, and so does
    # the lazy walk of D_psi', under the space's limit. The word of d is a
    # letter i before its parent's, so d e_{J,J'} is the parent's translate
    # moved by the table of tau_i
    from . import specht
    from .exactlin import echelon_insert
    from .subsystem import distinguished_reps
    from .weyl import fold_walk

    space, field = module.space, module.field
    walk = distinguished_reps(space.system, space.psi_prime, space.limit)
    steps = [functools.partial(specht._permuted, table) for table in space._tables]
    by_pivot: dict = {}
    picked = []
    for word, vec in fold_walk(walk, steps, module.e_vec):
        if echelon_insert(field, by_pivot, vec):
            picked.append((word, vec))
            if len(picked) == module.dimension:
                break
    return picked


@_walks
def cmd_specht(args, bound) -> int:
    from . import specht, verify
    from .exactlin import field_by_name, field_name
    from .weyl import group_order, word_order

    system = _system(args.type)
    order = group_order(system)
    psi = _subsystem(system, _simples(system, args.J))
    psi_prime = _subsystem(system, _simples(system, args.Jp))
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
        module = specht.build_specht_module(system, psi, psi_prime, field, **bound)
    space = module.space
    good = verify.good_from_space(space)
    witness = verify.obstruction_from_space(space)
    check_doc = {
        "vanishing_witness": list(word_order(system)(witness)[1]) if witness is not None else None
    }
    passed = {"useful": space.useful, "good": good.is_good}
    if "useful" in checks:
        check_doc["useful"] = space.useful
    if "good" in checks:
        missing = set(good.witnesses)
        check_doc["good"] = {
            "good": good.is_good,
            "witnesses": [list(t.rep_word) for t in space if t.rep in missing],
        }
    if "probe" in checks:
        seed = {} if args.probe_seed is None else {"seed": args.probe_seed}
        probe = verify.submodule_theorem_probe(module, trials=args.probe_trials, **seed)
        passed["probe"] = probe.ok
        check_doc["probe"] = {
            "trials": probe.trials,
            "seed": probe.seed,
            "characteristic": probe.characteristic,
            "violations": list(probe.violations),
        }
    code = EXIT_OK if all(passed[name] for name in checks) else EXIT_CHECK_FAILED
    J, Jp = _simples_text(system, psi), _simples_text(system, psi_prime)
    dims = specht.quotient_dimension(module)
    doc = {
        "ambient": system.label,
        "psi": {"label": psi.label, "J": J},
        "psi_prime": {"label": psi_prime.label, "J'": Jp},
        "field": field_name(field),
        "tabloid_count": len(space),
        "dim_S": dims[0],
        "dim_radical": dims[1],
        "dim_D": dims[2],
        "sample_characters": [
            {"word": list(word), "trace": field.format(specht.character_value(module, word))}
            for word in words
        ],
        "useful": space.useful,
        "good": good.is_good,
        "checks": check_doc,
    }
    if args.json:
        _emit(doc)
        return code

    # the listing walks D_psi', so it runs before the first line is printed
    generators = _independent_generators(module) if module.dimension else ()
    print(f"ambient {system.label}: |W| = {order}")
    print(f"psi {psi.label}: J = {','.join(J)}, |N(psi)| = {order // len(space)}")
    print(
        f"psi' {psi_prime.label}: J' = {','.join(Jp)}, "
        f"|W(psi')| = {len(space.col_group)}"
    )
    print(f"field {doc['field']}")
    print(f"tabloids: {len(space)}")
    print(f"dim S = {dims[0]}, dim radical = {dims[1]}, dim D = {dims[2]}")
    print(f"useful sub-system: {'yes' if space.useful else 'no'}")
    print(f"good sub-system: {'yes' if good.is_good else 'no'}")
    print(f"e_{{J,J'}} = {specht.format_module_vector(space, field, module.e_vec)}")
    if generators:
        print("independent generators:")
        for word, vec in generators:
            print(f"  {_word_text(word)} | {specht.format_module_vector(space, field, vec)}")
    if check_doc["vanishing_witness"] is not None:
        print(f"vanishing witness: {_word_text(check_doc['vanishing_witness'])}")
    if words:
        print("character values:")
        for char in doc["sample_characters"]:
            print(f"  psi({_word_text(char['word'])}) = {char['trace']}")
    if checks:
        verdict = {name: "pass" if ok else "FAIL" for name, ok in passed.items()}
        print("checks:")
        if "useful" in checks:
            print(f"  useful: {verdict['useful']}")
        if "good" in checks:
            line = f"  good: {verdict['good']}"
            if check_doc["good"]["witnesses"]:
                cosets = " ".join(map(_word_text, check_doc["good"]["witnesses"]))
                line += f" (missing cosets: {cosets})"
            elif good.reason:
                line += f" ({good.reason})"
            print(line)
        if "probe" in checks:
            probe_doc = check_doc["probe"]
            print(
                f"  probe: trials={probe_doc['trials']} seed={probe_doc['seed']} "
                f"violations={len(probe_doc['violations'])} {verdict['probe']}"
            )
    return code


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
    p_tab.add_argument("--limit", type=int)
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
    p_sp.add_argument("--limit", type=int)
    p_sp.add_argument("--probe-trials", type=int, default=50)
    p_sp.add_argument("--probe-seed", type=int)
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

"""The benchmark's workloads: fixed lists of CLI commands and library operations.

A workload is a pass, an ordered list of operations, that the client repeats
for the measured time. An operation is either a CLI command, run in a fresh
``python -m weylspecht.cli`` process, or a library call, run in the workload's
worker process (see ``child.py``). Nothing here depends on the seed except the
probe seeds, which ``run.py`` derives from it.
"""

from __future__ import annotations

FP = "F2147483647"  # word-size prime 2^31 - 1
DESK_FP = "F3"  # a small prime, so the char-p radical differs from Q

# name: (ambient, J, J')
PAIRS = {
    "A3": ("A3", "100,001", "110"),
    "G2": ("G2", "10", "01,31"),
    "D4-3": ("D4", "1000,0100,0001", "1110"),
    "D4-6": ("D4", "1000,0100", "0001,0110"),
    "F4": ("F4", "1000,0100,0010", "0001"),
    "A5": ("A5", "10000,01000,00010", "11100,01110"),
    "A6": ("A6", "100000,010000,000100,000010", "111000,011100"),
    "A7": ("A7", "1000000", "1100000,0010000,0001000,0000100,0000010,0000001"),
    "D6": ("D6", "100000", "001000,000100,000010,000001"),
    "B6": ("B6", "100000", "001000,000100,000010,000001"),
}

DESK_PAIRS = ("A3", "G2", "D4-3", "D4-6", "F4", "A5")
CHAR_WORDS = {"A3": "1 2", "G2": "1 2", "D4-3": "1 3 2", "D4-6": "1 3 2", "F4": "1 2 3 4", "A5": "1 2"}


def cli(*args: str) -> dict:
    return {"kind": "cli", "args": list(args)}


def lib(kind: str, pair: str, field: str = "Q") -> dict:
    return {"kind": kind, "pair": pair, "field": field}


def specht_cmd(pair: str, *flags: str) -> dict:
    ambient, j, jp = PAIRS[pair]
    return cli("specht", "--type", ambient, "--J", j, "--Jp", jp, *flags)


def _desk() -> list[dict]:
    ops = []
    for ambient in ("A3", "G2", "D4", "F4", "A5"):
        ops += [cli("roots", "--type", ambient), cli("roots", "--type", ambient, "--json")]
    for pair in DESK_PAIRS:
        ambient, j, _ = PAIRS[pair]
        ops += [cli("tabloids", "--type", ambient, "--J", j), cli("tabloids", "--type", ambient, "--J", j, "--json")]
    for pair in DESK_PAIRS:
        for field in ("Q", DESK_FP):
            for fmt in ((), ("--json",)):
                ops.append(
                    specht_cmd(pair, "--field", field, "--check", "useful,good", "--char", CHAR_WORDS[pair], *fmt)
                )
    return ops


def _a6(field: str, probe_pair: str, probe_trials: int, norm: bool) -> list[dict]:
    ops = [
        specht_cmd("A6", "--field", field, "--check", "useful,good"),
        lib("build", "A6", field),
        lib("chars", "A6", field),
    ]
    if norm:
        ops.append(lib("norm", "A6", field))
    ops.append(lib("build", probe_pair, field))
    ops += [lib("probe", probe_pair, field)] * probe_trials
    return ops


def _large_w() -> list[dict]:
    ambient, j, _ = PAIRS["A7"]
    ops = [cli("tabloids", "--type", ambient, "--J", j)]
    for pair in ("A7", "D6", "B6"):
        ops.append(specht_cmd(pair, "--check", "useful,good", "--char", "1 2"))
    return ops


# name: (ops of one pass, ambients the library worker generates during set-up)
WORKLOADS = {
    "desk": (_desk(), ()),
    "a6-q": (_a6("Q", "D4-6", probe_trials=10, norm=True), ("A6", "D4")),
    "a6-fp": (_a6(FP, "A5", probe_trials=4, norm=False), ("A6", "A5")),
    "large-w": (_large_w(), ()),
}


def op_key(op: dict) -> str:
    """The manifest key of an operation; probe trials share one key."""
    if op["kind"] == "cli":
        return "cli " + " ".join(op["args"])
    return f"{op['kind']} {op['pair']} {op['field']}"

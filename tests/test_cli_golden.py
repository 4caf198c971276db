"""Byte identity of the CLI against the benchmark's recorded outputs.

Every CLI operation of the benchmark workloads is run in-process and its exit
code and stdout digest are compared with ``perfbench/manifest.json``. Both
benchmark files are only read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from oracles import PERFBENCH, load_workloads
from weylspecht import cli

_workloads = load_workloads()
MANIFEST = json.loads((PERFBENCH / "manifest.json").read_text())


def _cases():
    seen = set()
    for name, (ops, _) in _workloads.WORKLOADS.items():
        for op in ops:
            key = _workloads.op_key(op)
            if op["kind"] != "cli" or key in seen:
                continue
            seen.add(key)
            marks = (pytest.mark.slow,) if name == "large-w" else ()
            yield pytest.param(op["args"], key, id=key, marks=marks)


CASES = list(_cases())


def test_every_manifest_cli_entry_is_covered():
    keys = {c.values[1] for c in CASES}
    assert keys == {k for k in MANIFEST if k.startswith("cli ")}
    assert len(keys) == 52


@pytest.mark.parametrize("argv,key", CASES)
def test_cli_output_matches_manifest(argv, key):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    expected = MANIFEST[key]
    assert rc == expected["rc"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == expected["sha256"]

"""Byte identity of the CLI against the benchmark's recorded outputs.

Every CLI operation of the benchmark workloads is run in-process and its exit
code and stdout digest are compared with ``perfbench/manifest.json``. Both
benchmark files are only read. The showcase script's stdout is pinned by its
digest as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


# |W(A8)| = 362880: 378 tabloids and dim S = 252; the pair is not useful, so
# the checks fail with exit 3
A8_REPORT = [
    "specht", "--type", "A8", "--J", "10000000,00100000", "--Jp", "01000000,00010000",
    "--check", "useful,good", "--char", "1 2", "--limit", "400000",
]
A8_REPORT_SHA256 = "6ca1ab40b799ab483218cea1c34d6a5b98ffe61e917d695aecab83f55d815367"


def _run(argv):
    # (exit code, stdout lines, stdout digest)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out = buf.getvalue()
    return rc, out.count("\n"), hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.slow
def test_a8_report_output_is_unchanged():
    assert _run(A8_REPORT) == (3, 267, A8_REPORT_SHA256)


@pytest.mark.slow
def test_a8_report_runs_at_the_default_limit():
    # |W(A8)| = 362880 is past the default bound, but the report's largest
    # walk, the 69279 points of D_psi' that the listing reads, is not
    assert A8_REPORT[-2] == "--limit"
    assert _run(A8_REPORT[:-2]) == (3, 267, A8_REPORT_SHA256)


# the row-reading (5,3) pair padded into D8: 3584 tabloids, dim S = 1792, and
# D_psi' has 645120 points, of which the listing reads words up to length 17
D8_REPORT = [
    "specht", "--type", "D8",
    "--J", "10000000,01000000,00100000,00010000,00000100,00000010",
    "--Jp", "11111000,01111100,00111110", "--limit", "1000000000",
]
D8_REPORT_SHA256 = "1c71beb069642551e03b06dce42a5809c3fd1e99c48104e7d5d2977832c96793"


@pytest.mark.slow
def test_d8_report_output_is_unchanged():
    assert _run(D8_REPORT) == (0, 1802, D8_REPORT_SHA256)


# the row-reading (4,3) pair padded into B7, over F2: 1120 tabloids, dim S =
# 741, a radical of 229 and dim D = 512
B7_F2_JSON = [
    "specht", "--type", "B7", "--J", "1000000,0100000,0010000,0000100,0000010",
    "--Jp", "1111000,0111100,0011110", "--json", "--field", "F2", "--limit", "1000000",
]
B7_F2_JSON_SHA256 = "03c96dbecf44e13712348d85d4c6a83bdb5b64fb56b1ab3d886cfdf31ff6833e"


@pytest.mark.slow
def test_b7_f2_radical_output_is_unchanged():
    assert _run(B7_F2_JSON) == (0, 33, B7_F2_JSON_SHA256)


# the digest is the same on Python 3.10 to 3.13
SHOWCASE_SHA256 = "556b0cc0c474a6e4d33b76fe8583a3de5e6799b864a07dc52574b8e1281f0f72"


def test_showcase_output_is_unchanged():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "showcase.py")],
        env=env,
        capture_output=True,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == SHOWCASE_SHA256

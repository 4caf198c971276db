#!/usr/bin/env python3
"""The weylspecht benchmark: one closed-loop client, one busy child at a time.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The client repeats the workload's pass (``workloads.py``) until the
measured time is used up, checks every operation against ``manifest.json``,
and prints one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the client makes one untraced pass and then one traced
pass, and reports per-layer self times and counters from the traced pass,
plus the tracing overhead; the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, op_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = HERE / "manifest.json"
OUT_DIR = ROOT / ".bench_out"
CHILD = str(HERE / "child.py")
SETUP_PER_PASS = 3
CLI_TIMEOUT = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms", "peak_rss_mb": "MB"}

# traced functions reported by self time (<name>_s) and by call count (<name>_calls)
SELF_TIMES = (
    "weyl.generate_group",
    "weyl.reflection_in",
    "subsystem.normalizer",
    "subsystem.distinguished_reps",
    "specht.enumerate_tabloids",
    "specht.polytabloid",
    "specht.character_value",
    "exactlin.row_reduce",
    "cli.main",
)
CALLS = (
    "weyl.subgroup_generated",
    "subsystem.normalizer",
    "subsystem.orthogonal_complement",
    "verify.is_useful_subsystem",
    "specht.enumerate_tabloids",
    "specht.polytabloid",
    "specht.character_value",
    "exactlin.row_reduce",
    "exactlin.contains",
    "verify.submodule_theorem_probe",
)
MODULES = ("rootsys", "weyl", "subsystem", "specht", "exactlin", "verify", "cli")
# counter -> (unit, traced function whose returned object it is read from)
SIZES = {
    "weyl.group_order": ("count", "weyl.generate_group"),
    "specht.tabloid_count": ("count", "specht.enumerate_tabloids"),
    "specht.generator_count": ("count", "specht.build_specht_module"),
    "specht.module_dim": ("count", "specht.build_specht_module"),
    "exactlin.row_reduce_vectors_in": ("count", "exactlin.row_reduce"),
    "exactlin.basis_nnz": ("count", "exactlin.row_reduce"),
    "exactlin.max_coeff_bits": ("bit", "exactlin.row_reduce"),
    "exactlin.row_reduce_calls_under_cli": ("count", "exactlin.row_reduce"),
    "cli.stdout_bytes": ("bytes", "cli.main"),
}


def per_layer_units() -> dict:
    units = {f"{n}_s": "s" for n in SELF_TIMES}
    units.update({f"{n}_calls": "count" for n in CALLS})
    units.update({f"{m}.total_self_s": "s" for m in MODULES})
    units.update({k: u for k, (u, _) in SIZES.items()})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Client:
    """Drives one workload: CLI commands in fresh processes, library
    operations in one worker, one operation in flight at a time."""

    def __init__(self, ambients, seed: int):
        self.ambients = list(ambients)
        self.env = child_env()
        self.probe_seeds = random.Random(seed)
        self.worker = None
        self.absent: list[str] = []

    # -- set-up ---------------------------------------------------------
    def setup_once(self) -> float:
        """Seconds from launch until a child is ready for work, then exits."""
        if self.ambients:
            cmd = [sys.executable, CHILD, "setup", *self.ambients]
        else:
            cmd = [sys.executable, "-c", "import weylspecht.cli"]
        t0 = perf_counter()
        subprocess.run(cmd, env=self.env, check=True, stdin=subprocess.DEVNULL)
        return perf_counter() - t0

    def start_worker(self, traced: bool) -> None:
        self.stop_worker()
        self.worker = subprocess.Popen(
            [sys.executable, CHILD, "serve", "1" if traced else "0", *self.ambients],
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = json.loads(self.worker.stdout.readline())
        self.absent = ready["absent"]

    def stop_worker(self) -> None:
        if self.worker is not None:
            self.worker.stdin.close()
            self.worker.wait()
            self.worker.stdout.close()
            self.worker = None

    # -- operations -----------------------------------------------------
    def run_op(self, op: dict, traced: bool) -> dict:
        """Run one operation; returns seconds, the outcome to check, spans."""
        if op["kind"] == "cli":
            return self._run_cli(op["args"], traced)
        if op["kind"] == "probe":
            op = dict(op, seed=self.probe_seeds.randrange(1 << 30))
        if self.worker is None or self.worker.poll() is not None:
            self.start_worker(traced)
        self.worker.stdin.write(json.dumps(op) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            self.stop_worker()
            return {"seconds": 0.0, "outcome": {"error": "worker exited"}, "spans": []}
        reply = json.loads(line)
        outcome = reply.get("result", {"error": reply.get("error")})
        return {"seconds": reply["seconds"], "outcome": outcome, "spans": reply.get("spans", [])}

    def _run_cli(self, args, traced: bool) -> dict:
        if traced:
            cmd = [sys.executable, CHILD, "cli", *args]
        else:
            cmd = [sys.executable, "-m", "weylspecht.cli", *args]
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, timeout=CLI_TIMEOUT, stdin=subprocess.DEVNULL
            )
        except subprocess.TimeoutExpired:
            return {"seconds": perf_counter() - t0, "outcome": {"error": "timeout"}, "spans": []}
        seconds = perf_counter() - t0
        if not traced:
            outcome = {"rc": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
            return {"seconds": seconds, "outcome": outcome, "spans": []}
        try:
            rec = json.loads(proc.stdout)
        except ValueError:
            return {"seconds": seconds, "outcome": {"error": proc.stderr.decode()[-2000:]}, "spans": []}
        self.absent = rec["absent"]
        outcome = {"rc": rec["rc"], "sha256": rec["sha256"]}
        return {"seconds": seconds, "outcome": outcome, "spans": rec["spans"], "bytes": rec["bytes"]}


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op: dict, outcome: dict) -> None:
        self.attempted += 1
        key = op_key(op)
        expected = self.manifest.get(key)
        if expected is None:
            self.failures.append(f"{key}: not in the manifest")
        elif outcome != expected:
            self.failures.append(f"{key}: got {json.dumps(outcome)[:500]}")


def run_pass(client: Client, ops, tally: Tally, traced: bool, setups: list | None = None):
    """One pass over the workload; returns (wall seconds, per-op records).

    With ``setups`` given, SETUP_PER_PASS set-up samples are taken at even
    intervals through the pass and appended to it; their time is left out of
    the pass's wall time. Spreading them over the run keeps a short slow
    spell of the machine from setting the median.
    """
    records = []
    stride = max(1, len(ops) // SETUP_PER_PASS)
    sampled = 0.0
    t0 = perf_counter()
    for i, op in enumerate(ops):
        rec = client.run_op(op, traced)
        tally.check(op, rec["outcome"])
        records.append((op, rec))
        if setups is not None and (i + 1) % stride == 0 and (i + 1) // stride <= SETUP_PER_PASS:
            setups.append(client.setup_once())
            sampled += setups[-1]
    return perf_counter() - t0 - sampled, records


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(records, absent, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer self times and counters of one traced pass."""
    values: dict = {}
    calls: dict = {}
    selfs: dict = {}
    mod_self: dict = {}
    sizes = {k: 0 for k in SIZES}
    for op, rec in records:
        spans = rec["spans"]
        if op["kind"] == "cli":
            sizes["cli.stdout_bytes"] += rec.get("bytes", 0)
        under_cli = []
        for span, st in zip(spans, self_times(spans)):
            name, parent, info = span[0], span[3], span[4]
            under_cli.append(name == "cli.main" or (parent >= 0 and under_cli[parent]))
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + st
            module = name.split(".")[0]
            mod_self[module] = mod_self.get(module, 0.0) + st
            if name == "exactlin.row_reduce" and under_cli[-1]:
                sizes["exactlin.row_reduce_calls_under_cli"] += 1
            if info:
                sizes["weyl.group_order"] = max(sizes["weyl.group_order"], info.get("order", 0))
                sizes["specht.tabloid_count"] = max(sizes["specht.tabloid_count"], info.get("tabloids", 0))
                sizes["specht.generator_count"] = max(sizes["specht.generator_count"], info.get("generators", 0))
                sizes["specht.module_dim"] = max(sizes["specht.module_dim"], info.get("dim", 0))
                sizes["exactlin.row_reduce_vectors_in"] += info.get("vectors_in", 0)
                sizes["exactlin.basis_nnz"] += info.get("nnz", 0)
                sizes["exactlin.max_coeff_bits"] = max(sizes["exactlin.max_coeff_bits"], info.get("bits", 0))
    missing = set(absent)
    for n in SELF_TIMES:
        if n not in missing:
            values[f"{n}_s"] = selfs.get(n, 0.0)
    for n in CALLS:
        if n not in missing:
            values[f"{n}_calls"] = calls.get(n, 0)
    for m in MODULES:
        values[f"{m}.total_self_s"] = mod_self.get(m, 0.0)
    for k, (_, needs) in SIZES.items():
        if needs not in missing:
            values[k] = sizes[k]
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "weylspecht").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one pass only, for self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "weylspecht" / "__init__.py").is_file():
        print(f"error: no weylspecht sources under {SRC}", file=sys.stderr)
        return 1
    with open(MANIFEST, encoding="utf-8") as fh:
        tally = Tally(json.load(fh))
    print(json.dumps({"environment": environment()}), file=sys.stderr)

    ops, ambients = WORKLOADS[args.workload]
    client = Client(ambients, args.seed)
    client.setup_once()  # untimed: fills the bytecode cache
    try:
        if args.trace:
            metrics = traced_run(client, ops, tally, args)
        else:
            metrics = untraced_run(client, ops, tally, args)
    finally:
        client.stop_worker()

    for failure in tally.failures:
        print("FAILED " + failure, file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def untraced_run(client: Client, ops, tally: Tally, args) -> dict:
    if client.ambients:
        client.start_worker(traced=False)
    setups, walls, cmd_ms, pass_times = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        wall, records = run_pass(client, ops, tally, traced=False, setups=setups)
        pass_times.append(perf_counter() - t0)
        walls.append(wall)
        cmd_ms += [rec["seconds"] * 1000 for op, rec in records if op["kind"] == "cli"]
        # start another pass if it would end nearer to --seconds than stopping now
        if args.quick or perf_counter() - start + statistics.median(pass_times) / 2 > args.seconds:
            break
    client.stop_worker()
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cmd_p50_ms": statistics.median(cmd_ms),
        "peak_rss_mb": peak_kib / 1024,
    }
    print(json.dumps({"passes": len(walls), "commands": len(cmd_ms), "setups": len(setups)}), file=sys.stderr)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_run(client: Client, ops, tally: Tally, args) -> dict:
    if client.ambients:
        client.start_worker(traced=False)
    untraced_wall, _ = run_pass(client, ops, tally, traced=False)
    client.absent = []
    if client.ambients:
        client.start_worker(traced=True)
    traced_wall, records = run_pass(client, ops, tally, traced=True)
    client.stop_worker()
    values = layer_metrics(records, client.absent, traced_wall, untraced_wall)
    OUT_DIR.mkdir(exist_ok=True)
    spans = [
        {"op": i, "key": op_key(op), "spans": rec["spans"]} for i, (op, rec) in enumerate(records)
    ]
    with open(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": spans}, fh)
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())

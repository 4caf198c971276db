#!/usr/bin/env python3
"""Self-tests of the benchmark, using its quick mode (about two minutes).

    python3 perfbench/selftest.py

Run from the root of a source checkout. Kept out of the repository's pytest
suite on purpose: they run the whole benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR, ROOT, SRC, Client, Tally, layer_metrics, per_layer_units  # noqa: E402
from workloads import WORKLOADS, op_key, specht_cmd  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    return res


class BenchmarkTests(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}, per_layer_units()
        )

    def test_manifest_covers_every_operation(self):
        manifest = json.loads((HERE / "manifest.json").read_text())
        for ops, _ in WORKLOADS.values():
            for op in ops:
                self.assertIn(op_key(op), manifest)

    def test_end_to_end_metrics_and_manifest(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result_of(bench(workload, 0))
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, expected)
                for v in res["metrics"].values():
                    self.assertGreater(v["value"], 0)

    def test_traced_run(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in ("a6-q", "large-w"):
            with self.subTest(workload=workload):
                res = result_of(bench(workload, 1))
                self.assertEqual(res["failed"], 0)
                metrics = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, expected)
                for k, v in metrics.items():
                    if k.endswith("_s") and k != "trace.overhead_s":
                        self.assertGreaterEqual(v, 0, k)
                module_total = sum(v for k, v in metrics.items() if k.endswith(".total_self_s"))
                self.assertLessEqual(module_total, metrics["trace.wall_s"])
                self.assertTrue((OUT_DIR / f"trace-{workload}-7.json").is_file())

    def test_a6_text_report_call_counts(self):
        op = specht_cmd("A6", "--field", "Q", "--check", "useful,good")
        client = Client((), seed=0)
        rec = client.run_op(op, traced=True)
        manifest = json.loads((HERE / "manifest.json").read_text())
        self.assertEqual(rec["outcome"], manifest[op_key(op)])
        calls = {}
        for span in rec["spans"]:
            calls[span[0]] = calls.get(span[0], 0) + 1
        self.assertEqual(calls["subsystem.normalizer"], 6)
        self.assertEqual(calls["verify.is_useful_subsystem"], 3)
        self.assertEqual(calls["weyl.subgroup_generated"], 12)
        self.assertEqual(calls["specht.polytabloid"], 1262)
        self.assertEqual(calls["exactlin.row_reduce"], 564)

    def test_absent_function_is_reported_absent(self):
        sys.path.insert(0, str(SRC))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(names=("weyl.no_such_function", "no_such_module.f", "specht.polytabloid"))
        self.assertEqual(tracer.absent, ["weyl.no_such_function", "no_such_module.f"])
        metrics = layer_metrics([], ["specht.polytabloid", "exactlin.row_reduce"], 1.0, 1.0)
        for gone in ("specht.polytabloid_s", "specht.polytabloid_calls", "exactlin.basis_nnz"):
            self.assertNotIn(gone, metrics)
        self.assertEqual(metrics["specht.character_value_calls"], 0)

    def test_failed_operation_is_counted(self):
        tally = Tally({"cli roots --type A3": {"rc": 0, "sha256": "0" * 64}})
        tally.check({"kind": "cli", "args": ["roots", "--type", "A3"]}, {"rc": 0, "sha256": "1" * 64})
        tally.check({"kind": "cli", "args": ["roots", "--type", "B3"]}, {"rc": 0, "sha256": "1" * 64})
        self.assertEqual((tally.attempted, len(tally.failures)), (2, 2))

    def test_fails_without_sources(self):
        bare = OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("desk", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)

"""The benchmark's own test.

    python3 perfbench/selftest.py

* A minimal run of each workload, untraced and traced, has no failed verdict
  and prints every metric that BENCHMARK.json names, with its unit.
* A deliberately wrong expected verdict is reported as a failure.
* Traced requests have span self times that add up to the request span, and
  a hook whose name has disappeared is reported as missing.
* In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Expect, Request, check  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class MinimalRuns(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, want)
                    lines = proc.stdout.splitlines()
                    for name, unit in want.items():
                        self.assertTrue(any(line.startswith(f"{name} = ")
                                            and line.endswith(f" {unit}")
                                            for line in lines), name)
                    self.assertIn("\nfailed_share = 0.0 share", proc.stdout)
                    if trace:
                        self.assertEqual(result["metrics"]["trace.missing_spans"]["value"], 0)


class Verdicts(unittest.TestCase):
    def setUp(self):
        os.chdir(ROOT)
        from qutrit_exact.cli.main import main as cli_main
        self.cli_main = cli_main
        path = "circuits/r_construction.qc"
        self.good = Request("tcount-bundled", ("tcount", path),
                            Expect(0, ("tcount: 39",)), path, matrix=False)

    def test_wrong_expected_verdict_is_a_failure(self):
        wrong_count = dataclasses.replace(self.good, expect=Expect(0, ("tcount: 40",)))
        wrong_code = dataclasses.replace(self.good, expect=Expect(1, ("tcount: 39",)))
        loop = run.Loop(self.cli_main, [self.good, wrong_count, wrong_code])
        loop.run(count=3)
        self.assertEqual(len(loop.failures), 2, loop.failures)

    def test_check_reads_the_verdict_lines(self):
        out = "consistent: T-count 4\n  consistent with ...\n"
        self.assertTrue(check(Expect(0, tcount_at_most=4), 0, out))
        self.assertFalse(check(Expect(0, tcount_at_most=3), 0, out))
        self.assertFalse(check(Expect(0, absent=("consistent",)), 0, out))
        self.assertFalse(check(Expect(0, ("obstructed:",)), 0, out))

    def test_spans_balance_and_missing_hooks_are_reported(self):
        gone = ("circuit.gone", tracing.CLI, "no_such_name")
        hooks = tracing.MODULE_HOOKS
        tracing.MODULE_HOOKS = hooks + (gone,)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            verify = dataclasses.replace(
                self.good, argv=("verify", self.good.path, "--target", "R x I"),
                expect=Expect(0, ("result: verified",)))
            loop = run.Loop(self.cli_main, [self.good, verify])
            loop.run(count=2, call=tracer.run)
        finally:
            tracer.uninstall()
            tracing.MODULE_HOOKS = hooks
        self.assertEqual(loop.failures, [])
        self.assertEqual(tracer.missing, ["circuit.gone (qutrit_exact.cli.main.no_such_name)"])
        self_ns, _, per_request = tracer.self_times()
        self.assertEqual(len(per_request), 2)
        for own, root in per_request.values():
            self.assertEqual(own, root)
        self.assertGreater(self_ns["sim.circuit_matrix"], 0)
        self.assertGreater(self_ns["circuit.expand"], 0)


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = HERE / ".work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
            proc = bench(bare, "verify", 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with its fixture shrunk to a few edges and checks
that each metric BENCHMARK.json names is printed with its unit, both in
the human-readable lines and in the JSON result line; that a corrupted
color dump is counted as a failed call; and that the benchmark refuses
to run where there are no program sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SelfTest(unittest.TestCase):
    def setUp(self):
        tiny = {n: dataclasses.replace(w, size=run.TINY[w.style]) for n, w in run.WORKLOADS.items()}
        patcher = mock.patch.object(run, "WORKLOADS", tiny)
        patcher.start()
        self.addCleanup(patcher.stop)

    def bench(self, workload: str, trace: int) -> tuple[list[str], dict]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)])
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def check_metrics(self, trace: int, spec_key: str):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                text, result = self.bench(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], text)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[spec_key]})
                printed = {line.split()[0]: line.split()[1:3] for line in text if line.startswith("  ")}
                for metric in SPEC[spec_key]:
                    value = result["metrics"][metric["name"]]
                    self.assertEqual(value["unit"], metric["unit"])
                    self.assertIsInstance(value["value"], (int, float))
                    self.assertEqual(printed[metric["name"]][1], metric["unit"])
                self.assertIn("failed_frac", printed)

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics(1, "per_layer")

    def test_corrupted_color_dump_counts_as_failed(self):
        judge = run.judge

        def corrupt_then_judge(wl, fx, proc, pairs, colors, svg):
            doc = json.loads(colors.read_text())
            doc["colors"][0][0] = 1.5
            colors.write_text(json.dumps(doc))
            return judge(wl, fx, proc, pairs, colors, svg)

        with mock.patch.object(run, "judge", corrupt_then_judge):
            text, result = self.bench("ordered-1d", 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("colors[0]" in line for line in text), text)

    def test_refuses_to_run_without_program_sources(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ordered-1d",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

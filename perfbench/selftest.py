"""Fast self-test of the benchmark harness at tiny problem sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs every workload through ``run.py --tiny`` with tracing off and
on, and checks that the last output line carries every metric named in
``BENCHMARK.json`` with its unit and no failed operation; then that an
injected failure raises the failed count and clears ``correct``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    def check_metrics(self, result: dict, declared: list[dict]) -> None:
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_printed_with_its_unit(self) -> None:
        for w in SPEC["workloads"]:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    result = run(w["name"], trace)
                    self.check_metrics(result, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace == 0:
                        for m in result["metrics"].values():
                            self.assertGreater(m["value"], 0)

    def test_injected_failure_is_counted(self) -> None:
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run(w["name"], 0, "--inject-failure")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_no_sources_means_no_result(self) -> None:
        import shutil
        import tempfile

        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench")
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "inspect", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True,
                timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    unittest.main()

"""Self-test of the benchmark: every workload runs at a tiny size, a
corrupted expected value is counted as an error on every workload, traced
counts repeat, and the benchmark refuses to run outside a checkout.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import tail  # noqa: E402
from workloads import WORKLOADS, compare_job, parse_records  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           "--seconds", "0", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def result(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class TestWorkloads(unittest.TestCase):
    def test_tiny_runs_are_correct_and_report_every_metric(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                detail, res = result(bench("--workload", w, "--seed", "5",
                                           "--cases", "2"))
                self.assertTrue(res["correct"], detail["first_problem"])
                self.assertEqual((res["attempted"], res["failed"]), (2, 0))
                self.assertEqual(set(res["metrics"]), names)
                self.assertTrue(all(m["value"] > 0
                                    for m in res["metrics"].values()))
                self.assertEqual(detail["error_rate"]["value"], 0)

    def test_corrupted_expectation_counts_as_error(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                detail, res = result(bench("--workload", w, "--seed", "5",
                                           "--cases", "2", "--corrupt"))
                self.assertFalse(res["correct"])
                self.assertEqual((res["attempted"], res["failed"]), (2, 1))
                self.assertEqual(detail["error_rate"]["value"], 0.5)

    def test_traced_counts_repeat_exactly(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        counts = [m["name"] for m in SPEC["per_layer"]
                  if m["unit"] == "count" or m["name"].endswith("distinct_frac")]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                details, runs = zip(*[
                    result(bench("--workload", w, "--seed", "9", "--cases",
                                 "2", "--trace", "1")) for _ in range(2)])
                self.assertEqual(set(runs[0]["metrics"]), names)
                for name in counts:
                    self.assertEqual(runs[0]["metrics"][name]["value"],
                                     runs[1]["metrics"][name]["value"], name)
                self.assertGreater(runs[0]["metrics"]["exactlin.snf.calls"]["value"], 0)
                if w == "corpus_cli":
                    other = details[0]["other_layer_metrics"]
                    self.assertGreater(other["cli.startup_s"], 0)
                    self.assertGreater(other["cli.run.self_s"], 0)

    def test_refuses_to_run_outside_a_checkout(self):
        bare = os.path.join(ROOT, ".perfbench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench("--workload", "flavors_z", "--seed", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TestHelpers(unittest.TestCase):
    def test_tail_keeps_ten_values_beyond(self):
        self.assertEqual(tail([float(i) for i in range(40)]), (75, 29.0))
        self.assertEqual(tail([float(i) for i in range(39)]), (74, 28.0))
        self.assertEqual(tail([1.0, 3.0, 2.0]), (100, 3.0))

    def test_reference_comparison_ignores_added_fields(self):
        ref = {"exit": 0, "records": [{"kind": "check", "tag": "x",
                                       "status": "pass"}]}
        text = "kind=info window=0..1\nkind=check tag=x status=pass checked=3\n"
        self.assertEqual(compare_job(ref, 0, parse_records(text)), [])
        self.assertTrue(compare_job(ref, 0, parse_records(
            "kind=check tag=x status=fail\n")))
        self.assertTrue(compare_job(ref, 1, parse_records(text)))


if __name__ == "__main__":
    unittest.main()

"""The benchmark's own check: tiny workloads, every metric, the output check.

Run from the root of a checkout:

    python3 -m unittest discover -s bench

Each case runs ``bench/run.py --smoke`` on tiny versions of all the
workloads, which finish in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
from workloads import PLANT_ITEMS, SMOKE  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def assert_reports(self, trace: int, kind: str, printed: tuple[str, ...]) -> None:
        """`kind` metrics in the result line; `printed` kinds on their own lines."""
        proc = bench("--workload", "all", "--smoke", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        lines = proc.stdout.splitlines()
        for workload in WORKLOAD_NAMES:
            for metric in SPEC[kind]:
                key = f"{workload}.{metric['name']}"
                self.assertEqual(result["metrics"][key]["unit"], metric["unit"])
            for metric in (m for k in printed for m in SPEC[k]):
                name, unit = metric["name"], metric["unit"]
                found = [l for l in lines if l.startswith(f"[{workload}] {name} = ")]
                self.assertEqual(len(found), 1, f"{workload} {name}")
                self.assertTrue(found[0].endswith(f" {unit}"), found[0])

    def test_end_to_end_metrics_and_output_check(self):
        self.assert_reports(0, "end_to_end", ("end_to_end",))

    def test_per_layer_metrics_and_output_check(self):
        self.assert_reports(1, "per_layer", ("end_to_end", "per_layer"))

    def test_single_workload_reports_exactly_its_metrics(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", "long", "--smoke", "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            metrics = result_of(proc)["metrics"]
            self.assertEqual(sorted(metrics), sorted(m["name"] for m in SPEC[kind]))

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "study", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_output_check_rejects_bad_records(self):
        workload = SMOKE["study"]
        path = ROOT / ".bench_build" / "smoke-bad.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        low = {"items": [["A", "1", 0]], "positive_support": 1, "embeddings": {"p1": [[1]]},
               "discriminative_support": ["p1"]}
        planted = {"items": PLANT_ITEMS, "positive_support": workload.min_support,
                   "embeddings": {f"p{i}": [[1, 2, 3, 4]] for i in range(workload.min_support)},
                   "discriminative_support": ["p0"]}
        path.write_text("".join(json.dumps(r) + "\n" for r in (low, planted)), encoding="utf-8")
        try:
            problems = run.check_records(path, workload)
        finally:
            path.unlink()
        self.assertTrue(any("< min_support" in p for p in problems), problems)
        self.assertTrue(any("planted pattern support 1" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()

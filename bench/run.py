#!/usr/bin/env python3
"""pathmine benchmark: end-to-end CLI runs and a per-layer traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload study --seed 42 --seconds 36 --trace 0

The workload's cohort is generated with ``pathmine synth`` from the seed.
The run then measures in rounds for at most ``--seconds`` (at least one
round) with one closed-loop client: each ``pathmine mine`` run is a fresh
subprocess, started only after the previous one has exited, with the
default thread count.

* ``--trace 0`` reports the end-to-end metrics, from untraced CLI runs
  only. Each round also times a few fresh interpreters for ``setup_s``.
* ``--trace 1`` adds a traced run (``bench/traced.py``) to each round and
  reports the per-layer metrics in its result line; ``trace.overhead_s``
  is the traced total minus the CLI wall-time median. It prints the
  end-to-end metrics too, so ``--workload all --trace 1`` shows all.
* ``--workload all`` runs every workload, interleaved round-robin so
  that host-speed drift hits them alike, and reports all of them.
* ``--smoke`` uses tiny versions of the workloads (``bench/test_smoke.py``).

Every run's output is checked (see ``check_output``); a run that fails
the check, exits non-zero or reports ``"complete": false`` counts as
failed. A fixed stdlib calibration loop is timed next to every run, as a
diagnostic of host speed, not a gated metric.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric names and units come
from ``BENCHMARK.json``. Samples, spans and calibration timings go to
``.bench_build/pathmine-bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, PLANT_ITEMS, SMOKE, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
WORK = ROOT / ".bench_build" / "pathmine-bench"

#: Fresh interpreters timed for setup_s next to each CLI run, so that
#: set-up samples span the whole measured window as the CLI runs do.
SETUP_RUNS = 3

#: What every run pays before touching patient data.
SETUP_SNIPPET = (
    "import sys\n"
    "from pathmine import compile_query, load_kb, parse_query\n"
    "kb = load_kb(sys.argv[1], sys.argv[2])\n"
    "with open(sys.argv[3], encoding='utf-8') as handle:\n"
    "    compile_query(parse_query(handle.read()), kb)\n"
)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class Process:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_process(args: list[str], env: dict, log: Path) -> Process:
    """Run one subprocess to exit; wall from spawn to exit, usage from wait4."""
    with open(log.with_suffix(".out"), "w+b") as out, open(log.with_suffix(".err"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Process(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def sha256(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_records(path: Path, workload: Workload) -> list[str]:
    """Problems with one JSONL result; empty when every record holds."""
    problems = []
    planted = None
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            rec = json.loads(line)
            support = rec["positive_support"]
            discr = rec["discriminative_support"]
            where = f"record {line_no}"
            if support < workload.min_support:
                problems.append(f"{where}: positive_support {support} < min_support")
            if len(rec["embeddings"]) != support:
                problems.append(f"{where}: {len(rec['embeddings'])} embeddings for support {support}")
            if workload.discriminative:
                if discr is None or not set(discr) <= set(rec["embeddings"]):
                    problems.append(f"{where}: discriminative supporters not a subset of supporters")
                elif len(discr) < workload.min_support:
                    problems.append(f"{where}: discriminative support {len(discr)} < min_support")
            elif discr is not None:
                problems.append(f"{where}: discriminative support on a support-only query")
            if rec["items"] == PLANT_ITEMS:
                planted = discr
    if workload.discriminative and (planted is None or len(planted) != workload.plant_count):
        found = "absent" if planted is None else f"support {len(planted)}"
        problems.append(f"planted pattern {found}, expected support {workload.plant_count}")
    return problems


@dataclass
class Bench:
    """One workload's inputs and everything measured on it."""

    workload: Workload
    seed: int
    dir: Path
    env: dict
    deliveries: int = 0
    digest: str | None = None
    checked: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def inputs(self) -> Path:
        return self.dir / "inputs"

    def mine_args(self, out: Path) -> list[str]:
        inputs = self.inputs
        return [
            sys.executable, "-m", "pathmine", "mine",
            "--query", str(self.dir / "query.pmq"),
            "--deliveries", str(inputs / "deliveries.csv"),
            "--diseases", str(inputs / "diseases.csv"),
            "--kb", str(inputs / "kb_attributes.csv"),
            "--taxonomy", str(inputs / "taxonomy.csv"),
            "--out", str(out),
        ]

    def prepare(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        (self.dir / "query.pmq").write_text(self.workload.query_text(), encoding="utf-8")
        synth = run_process(
            [sys.executable, "-m", "pathmine", "synth", "--out-dir", str(self.inputs)]
            + self.workload.synth_args(self.seed),
            self.env,
            self.dir / "synth",
        )
        if synth.returncode != 0:
            raise SystemExit(f"pathmine synth failed ({synth.returncode}): {synth.stderr}")
        self.deliveries = json.loads(synth.stdout)["deliveries"]

    def measure_setup(self, runs: int) -> None:
        """Time `runs` fresh interpreters doing the set-up every run pays."""
        args = [
            sys.executable, "-c", SETUP_SNIPPET,
            str(self.inputs / "kb_attributes.csv"),
            str(self.inputs / "taxonomy.csv"),
            str(self.dir / "query.pmq"),
        ]
        for _ in range(runs):
            proc = run_process(args, self.env, self.dir / "setup")
            if proc.returncode != 0:
                self.problems.append(f"setup exited {proc.returncode}: {proc.stderr.strip()}")
                return
            self.setup.append(proc.wall_s)

    def check_output(self, out: Path, what: str) -> bool:
        """Same digest as every other run, pinned at the default seed, records valid."""
        digest = sha256(out)
        problems = []
        if self.digest is None:
            self.digest = digest
            pinned = self.workload.digest
            if self.seed == DEFAULT_SEED and pinned and digest != pinned:
                problems.append(f"digest {digest} differs from the pinned {pinned}")
        elif digest != self.digest:
            problems.append(f"digest {digest} differs from the first run's {self.digest}")
        if digest not in self.checked:
            try:
                self.checked[digest] = check_records(out, self.workload)
            except (ValueError, KeyError, TypeError) as exc:
                self.checked[digest] = [f"unreadable output: {exc!r}"]
        problems += self.checked[digest]
        self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    def cli_run(self) -> None:
        out = self.dir / "patterns.jsonl"
        calib = calibrate()
        proc = run_process(self.mine_args(out), self.env, self.dir / "mine")
        ok = proc.returncode == 0
        if not ok:
            self.problems.append(f"mine exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        else:
            try:
                report = json.loads(proc.stdout)
            except ValueError:
                report = {}
            if report.get("complete") is not True:
                self.problems.append("mine reported an incomplete result")
                ok = False
            ok = self.check_output(out, "mine") and ok
        self.runs.append({"ok": ok, "calibration_s": calib, **_usage(proc)})
        out.unlink(missing_ok=True)

    def traced_run(self) -> None:
        n = len(self.traces)
        run_id = f"{self.workload.name}-{self.seed}-{n}"
        out = self.dir / "traced.jsonl"
        spans = self.dir / "spans.json"
        calib = calibrate()
        args = [sys.executable, str(TRACED), str(self.inputs), str(self.dir / "query.pmq"),
                str(out), str(spans), run_id, repr(time.perf_counter())]
        proc = run_process(args, self.env, self.dir / "traced")
        record = {"ok": proc.returncode == 0, "calibration_s": calib, **_usage(proc)}
        if proc.returncode != 0:
            self.problems.append(f"traced run exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        else:
            record.update(json.loads(spans.read_text(encoding="utf-8")))
            if "cli.output_bytes" in record["absent"]:
                print(f"[{self.workload.name}] cli.render_patterns absent: traced output not checked")
            else:
                record["ok"] = self.check_output(out, "traced run")
            spans.unlink()
        self.traces.append(record)
        out.unlink(missing_ok=True)


def _usage(proc: Process) -> dict:
    return {"wall_s": proc.wall_s, "cpu_s": proc.cpu_s, "peak_rss_mb": proc.peak_rss_mb}


def describe(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median={statistics.median(values):.6g} n={n}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        text += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    else:
        text += f" max={max(values):.6g} (n<20: no percentile has 10 samples beyond it)"
    return text


def end_to_end(bench: Bench) -> dict[str, float]:
    good = [r for r in bench.runs if r["ok"]]
    if not good or not bench.setup:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "deliveries_per_s": statistics.median(bench.deliveries / r["wall_s"] for r in good),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "setup_s": statistics.median(bench.setup),
    }


def per_layer(bench: Bench, names: list[str]) -> dict[str, float]:
    good = [t for t in bench.traces if t["ok"]]
    cli = [r["wall_s"] for r in bench.runs if r["ok"]]
    if not good or not cli:
        return {}
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            total = statistics.median(t["metrics"]["trace.total_s"] for t in good)
            metrics[name] = total - statistics.median(cli)
        elif name in good[0]["absent"]:
            # Code that a refactor removed did no work: it reads 0 and is named in the output.
            metrics[name] = 0
        else:
            metrics[name] = statistics.median(t["metrics"][name] for t in good)
    return metrics


def report(bench: Bench, units: dict[str, str], names: list[str], trace: bool) -> dict[str, float]:
    """Print one workload's samples and metrics; return the metrics."""
    name = bench.workload.name
    attempted = len(bench.runs) + len(bench.traces)
    failed = sum(not r["ok"] for r in bench.runs + bench.traces)
    print(f"[{name}] seed={bench.seed} deliveries={bench.deliveries} "
          f"run_fail_ratio={failed / max(attempted, 1):.4g} ({failed}/{attempted})")
    for problem in bench.problems[:20]:
        print(f"[{name}] FAIL {problem}")
    if len(bench.problems) > 20:
        print(f"[{name}] FAIL ... {len(bench.problems) - 20} more problems")
    samples = {
        "wall_s": [r["wall_s"] for r in bench.runs if r["ok"]],
        "cpu_s": [r["cpu_s"] for r in bench.runs if r["ok"]],
        "setup_s": bench.setup,
        "calibration_s": [r["calibration_s"] for r in bench.runs + bench.traces],
    }
    for metric, values in samples.items():
        if values:
            print(f"[{name}] {metric} (s): {describe(values)}")
    metrics = end_to_end(bench)
    layers = per_layer(bench, names) if trace else {}
    if trace:
        absent = sorted({a for t in bench.traces for a in t.get("absent", ())})
        if absent:
            print(f"[{name}] absent in this version (reported as 0): {', '.join(absent)}")
        selfs: dict[str, list[float]] = {}
        for t in bench.traces:
            for span in t.get("spans", ()):
                selfs.setdefault(span["name"], []).append(span["self_s"])
        for span_name, values in selfs.items():
            print(f"[{name}] span {span_name} self_s: {describe(values)}")
    for metric, value in {**metrics, **layers}.items():
        print(f"[{name}] {metric} = {value:.6g} {units[metric]}")
    return layers if trace else metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workloads, for the smoke test")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pathmine" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'pathmine'} or {spec_path} is missing; run from a pathmine checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    table = SMOKE if args.smoke else WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tag = "smoke-" if args.smoke else ""
    benches = [
        Bench(table[n], args.seed, WORK / f"{tag}{n}-{args.seed}", env)
        for n in names
    ]
    for bench in benches:
        bench.prepare()
        # Writes the bytecode caches, which every later interpreter reuses.
        bench.measure_setup(1)
        bench.setup.clear()

    # Rounds go on while another one, as long as the average so far, still
    # ends within --seconds; there is always at least one.
    start = time.perf_counter()
    rounds = 0
    while True:
        for bench in benches:
            bench.measure_setup(SETUP_RUNS)
            if args.trace:
                bench.traced_run()
            bench.cli_run()
        rounds += 1
        if (time.perf_counter() - start) * (rounds + 1) / rounds > args.seconds:
            break

    metrics = {}
    reported = True
    for bench in benches:
        found = report(bench, units, layer_names, bool(args.trace))
        reported = reported and bool(found)
        prefix = f"{bench.workload.name}." if len(benches) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in found.items()})
        result_path = WORK / f"result-{tag}{bench.workload.name}-{bench.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(
            {"workload": bench.workload.name, "seed": bench.seed, "deliveries": bench.deliveries,
             "digest": bench.digest, "problems": bench.problems, "setup_s": bench.setup,
             "runs": bench.runs, "traces": bench.traces, "metrics": found}, indent=1), encoding="utf-8")
        shutil.rmtree(bench.dir)

    attempted = sum(len(b.runs) + len(b.traces) for b in benches)
    failed = sum(not r["ok"] for b in benches for r in b.runs + b.traces)
    if not reported:
        print("error: a workload has no successful run to report", file=sys.stderr)
        return 1
    correct = failed == 0 and not any(b.problems for b in benches)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

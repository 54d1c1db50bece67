"""One traced pathmine run: the layers of ``pathmine mine``, called in turn.

``bench/run.py`` starts this script in a fresh interpreter with the
checkout's ``src`` on ``PYTHONPATH``. It makes the calls that
``pathmine.cli.run_mine`` makes, one after another, and records a span
(name, start, end, parent, run id) around each, from outside the
package. The spans, each span's self time and the layer counters are
written to one JSON file when the run ends.

The calls go through the README "Library use" surface. Code outside
that surface (``cli.render_patterns``, ``model.find_embeddings``,
``CaseDatabase.pairs``, ``MiningResult.nodes_expanded``) is timed only
when it exists; otherwise its metrics are listed as absent, so that a
refactor of those internals does not break the benchmark.

The witness replay (``find_embeddings(pattern, sequence, limit=1)`` for
every emitted pattern and supporter, the call the engine's emit step
makes) is work the CLI run does not do twice, so it is a root span of its
own, after the ``run`` span has ended.

Usage: traced.py INPUT_DIR QUERY OUT SPANS RUN_ID SPAWNED_AT
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from contextlib import contextmanager

MB = 1024.0  # ru_maxrss is in KiB on Linux


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB


def _optional(module: str, name: str):
    """`module.name`, or None when a refactor has removed it."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Spans kept in memory; the innermost open span is the parent."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter() if start is None else start
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def with_self_times(self) -> list[dict]:
        """Each span plus its self time: duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [
            dict(span, self_s=span["end"] - span["start"] - covered[span["id"]])
            for span in self.spans
        ]


def main(argv: list[str]) -> int:
    input_dir, query_path, out_path, spans_path, run_id, spawned_at = argv
    tracer = Tracer(run_id)
    metrics: dict[str, float] = {}
    absent: list[str] = []

    # perf_counter reads CLOCK_MONOTONIC, which every process on the host
    # shares, so the root span can start when the parent spawned us and
    # interpreter start-up shows as the root's uncovered time.
    with tracer.span("run", start=float(spawned_at)):
        with tracer.span("run.import"):
            from pathmine import (
                MiningOptions,
                RawDatabase,
                build_database,
                compile_query,
                load_deliveries,
                load_diseases,
                load_kb,
                mine,
                parse_query,
            )
            render = _optional("pathmine.cli", "render_patterns")
            find_embeddings = _optional("pathmine.model", "find_embeddings")
        with open(query_path, encoding="utf-8") as handle:
            query_text = handle.read()
        with tracer.span("ingest.load_kb"):
            kb = load_kb(f"{input_dir}/kb_attributes.csv", f"{input_dir}/taxonomy.csv")
        with tracer.span("query.compile"):
            task = compile_query(parse_query(query_text), kb)
        with tracer.span("ingest.load_deliveries"):
            deliveries = load_deliveries(f"{input_dir}/deliveries.csv")
        with tracer.span("ingest.load_diseases"):
            diseases = load_diseases(f"{input_dir}/diseases.csv")
        with tracer.span("ingest.rawdb"):
            raw = RawDatabase(deliveries, diseases)

        rss = _peak_rss_mb()
        with tracer.span("builder.build"):
            database = build_database(raw, task, kb)
        metrics["builder.rss_delta_mb"] = _peak_rss_mb() - rss

        try:
            # The CLI's default; MiningOptions itself defaults to "all".
            options = MiningOptions(embeddings="witness")
        except TypeError:
            options = MiningOptions()
        rss = _peak_rss_mb()
        with tracer.span("engine.mine"):
            result = mine(task, database, options)
        metrics["engine.rss_delta_mb"] = _peak_rss_mb() - rss

        if render is None:
            absent += ["cli.render_s", "cli.write_s", "cli.output_bytes"]
        else:
            with tracer.span("cli.render"):
                text = render(result.patterns)
            with tracer.span("cli.write"):
                with open(out_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            metrics["cli.render_s"] = tracer.seconds("cli.render")
            metrics["cli.write_s"] = tracer.seconds("cli.write")
            metrics["cli.output_bytes"] = len(text.encode("utf-8"))

    patterns = result.patterns
    supporters = sum(len(pt.supported) for pt in patterns)
    pairs = getattr(database, "pairs", None)
    if pairs is None or find_embeddings is None:
        absent += ["model.witness_s", "model.witness_calls"]
    else:
        positives = {pair.patient: pair.positive for pair in pairs}
        calls = 0
        try:
            with tracer.span("model.witness"):
                for pt in patterns:
                    for patient in pt.supported:
                        find_embeddings(pt.pattern, positives[patient], limit=1)
                        calls += 1
        except (TypeError, AttributeError):
            # The builder's sequences no longer fit find_embeddings: no replay.
            tracer.spans.pop()
            absent += ["model.witness_s", "model.witness_calls"]
        else:
            metrics["model.witness_s"] = tracer.seconds("model.witness")
            metrics["model.witness_calls"] = calls

    if pairs is None:
        absent += ["builder.pos_events", "builder.neg_events"]
    else:
        metrics["builder.pos_events"] = sum(len(pair.positive) for pair in pairs)
        metrics["builder.neg_events"] = sum(
            len(pair.negative) for pair in pairs if pair.negative is not None
        )
    nodes = getattr(result, "nodes_expanded", None)
    if nodes is None:
        absent += ["engine.nodes", "engine.emit_ratio", "engine.nodes_per_s"]
    else:
        metrics["engine.nodes"] = nodes
        metrics["engine.emit_ratio"] = len(patterns) / nodes if nodes else 0.0
        metrics["engine.nodes_per_s"] = nodes / tracer.seconds("engine.mine")

    load_s = sum(
        tracer.seconds(f"ingest.{part}") for part in ("load_kb", "load_deliveries", "load_diseases")
    )
    rows = len(deliveries) + len(diseases)
    spans = tracer.with_self_times()
    metrics.update(
        {
            "run.import_s": tracer.seconds("run.import"),
            "query.compile_s": tracer.seconds("query.compile"),
            "ingest.load_s": load_s,
            "ingest.rawdb_s": tracer.seconds("ingest.rawdb"),
            "ingest.rows": rows,
            "ingest.rows_per_s": rows / load_s,
            "builder.build_s": tracer.seconds("builder.build"),
            "builder.patients_indexed": len(database),
            "engine.mine_s": tracer.seconds("engine.mine"),
            "engine.patterns": len(patterns),
            "engine.supporters": supporters,
            "trace.total_s": tracer.seconds("run"),
            "trace.uncovered_s": spans[0]["self_s"],
        }
    )
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans, "metrics": metrics, "absent": absent}, handle, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Command-line front end.

Two subcommands:

* ``mine`` runs the whole pipeline: parse the query before it opens
  any other file, load CSVs, widen the query's class filter against the
  knowledge base, build the case database, mine, write one JSON object per
  pattern to the output file (JSON Lines), and print a run report as
  JSON on stdout. It loads the facts with the library's own sequence,
  `RawDatabase(load_deliveries(...), load_diseases(...))`. Each line
  is written straight from the search's compact record; no
  `PatternTuple` is built.
* ``synth`` writes a synthetic cohort with a planted pattern, for demos
  and tests.

Exit codes: 0 success, 1 usage or query error, 2 data error, 3 the
search hit a resource budget and the results are incomplete (they are
still written). Diagnostics go to stderr only.

``mine`` runs with Python's cyclic garbage collector disabled and
restores its previous state when the command returns, so library
callers and in-process ``main()`` calls see no change. The bulk phases
allocate hundreds of thousands of container objects (fact columns and
each patient's day and code tuples, the windows' key and id tuples,
index lists), and each
automatic collection would traverse all of them again, yet none of them
is part of a reference cycle: facts, items and tuples of ints are
immutable trees, and everything they reference is freed by reference
counting. Turning the collector off therefore leaks nothing that grows
with the data; the tests check that the garbage left after a run does
not depend on the cohort size.

Library calls of `mine()` keep the caller's collector state. Its
records are tuples and lists of ints, which give the collector little
to traverse: timed in process on the seed-42 `deep` cohort on a 2-CPU
host, `mine()` took 1.51 and 1.74 s with the collector on against 1.45
and 1.50 s with it off (medians of two rounds of four), a gap inside
the run-to-run spread, where building `PatternTuple`s had made it 2.04
and 2.00 s against 1.66 and 1.70 s. So `mine()` changes no collector
state, and no option turns it off.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
import time
from functools import cache
from itertools import islice, starmap
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

try:
    import resource
except ImportError:  # Windows has no resource module.
    resource = None

from .builder import build_database
from .engine import Columns, MiningOptions, MiningResult, mine
from .errors import InvalidPlantSpec, PathmineError, QueryError
from .ingest import RawDatabase, load_deliveries, load_diseases, load_kb, undecodable
from .model import Embedding, PatternTuple
from .query import compile_query, parse_query
from .synth import CohortConfig, PlantSpec, generate_cohort, write_cohort

USAGE_EXIT = 1
DATA_EXIT = 2
INCOMPLETE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


#: Embeddings per piece of a line, so that the output is written in
#: bounded memory however many embeddings a patient has.
_CHUNK = 1024


def _json_list(values: Iterable) -> str:
    """Compact JSON text of a list of ints or strings."""
    return json.dumps(list(values), separators=(",", ":"))


def _line(
    items: list[str],
    patients: list[str],
    discriminative: list[str] | None,
    witnesses: Columns | None,
    embeddings: Iterable[Iterable[Embedding]],
) -> Iterator[str]:
    """One pattern's JSON Lines record in pieces, ending in a newline.

    The one statement of the output format: the text `json.dumps` gives
    the record with sorted keys and compact separators. `items`,
    `patients` and `discriminative` are JSON texts, the patients in
    ascending order. Each patient's embeddings are its one witness, or
    else its iterable in `embeddings`, ascending either way, so no key
    or list needs sorting. Witnesses come as position columns, one list
    per item holding each patient's position of it, and are formatted
    straight from them. An iterable is drawn from as the line is
    written, at most `_CHUNK` embeddings at a time.
    """
    discr = "null" if discriminative is None else "[" + ",".join(discriminative) + "]"
    head = '{"discriminative_support":' + discr + ',"embeddings":{'
    # Every embedding of a pattern has one position per item.
    slots = ",".join(("{}",) * len(items))
    if witnesses is not None:
        entry = "{}:[[" + slots + "]]"
        yield head + ",".join(map(entry.format, patients, *witnesses))
    else:
        yield head
        position = ("[" + slots + "]").format
        separator = ""
        for patient, found in zip(patients, embeddings):
            texts = starmap(position, found)
            yield separator + patient + ":[" + ",".join(islice(texts, _CHUNK))
            while chunk := ",".join(islice(texts, _CHUNK)):
                yield "," + chunk
            yield "]"
            separator = ","
    yield '},"items":[' + ",".join(items) + '],"positive_support":' + str(len(patients)) + "}\n"


def render_records(result: MiningResult) -> Iterator[str]:
    """The result's JSON Lines text in pieces, straight from its records.

    Each item's and each patient's JSON text is encoded once. All mode
    enumerates each supporter's embeddings as its line is written.
    """
    items = [_json_list(item.values) for item in result.items]
    patients = list(map(encode_basestring_ascii, result.patients))
    for record in result.records:
        discr = record.discriminative
        yield from _line(
            list(map(items.__getitem__, record.prefix)),
            list(map(patients.__getitem__, record.seqs)),
            None if discr is None else list(map(patients.__getitem__, discr)),
            record.witnesses,
            result.embeddings(record),
        )


def render_patterns(patterns: Iterable[PatternTuple]) -> str:
    """JSON Lines text for `PatternTuple`s, one pattern per line.

    The same bytes that the mine command writes for the same result.
    """
    # Each distinct item's text is encoded once per call.
    item_text = cache(lambda item: _json_list(item.values))
    pieces = []
    for pt in patterns:
        patients = sorted(pt.supported)
        found = [sorted(pt.embeddings[patient]) for patient in patients]
        witnesses = None
        # One embedding per patient, as in witness mode, takes the faster
        # path, as position columns.
        if all(len(embeddings) == 1 for embeddings in found):
            witnesses = tuple(zip(*(embeddings[0] for embeddings in found)))
        discr = pt.discriminative
        pieces.extend(
            _line(
                list(map(item_text, pt.pattern.items)),
                list(map(encode_basestring_ascii, patients)),
                None if discr is None else list(map(encode_basestring_ascii, sorted(discr))),
                witnesses,
                found,
            )
        )
    return "".join(pieces)


def build_parser() -> _Parser:
    parser = _Parser(prog="pathmine", description="Constraint-based care-pathway pattern mining")
    sub = parser.add_subparsers(dest="command", required=True)

    mine_cmd = sub.add_parser("mine", help="run a mining query end to end")
    mine_cmd.add_argument("--query", required=True, help="query file (.pmq)")
    mine_cmd.add_argument("--deliveries", required=True, help="deliveries CSV")
    mine_cmd.add_argument("--diseases", required=True, help="diseases CSV")
    mine_cmd.add_argument("--kb", required=True, help="code attributes CSV")
    mine_cmd.add_argument("--taxonomy", required=True, help="taxonomy CSV")
    mine_cmd.add_argument("--out", required=True, help="output JSONL file")
    mine_cmd.add_argument(
        "--embeddings", choices=("all", "witness"), default="witness",
        help="store every embedding or one leftmost witness per patient",
    )
    mine_cmd.add_argument("--max-len", type=int, default=None, help="pattern length cap")
    mine_cmd.add_argument(
        "--unknown-code", choices=("skip", "abort"), default="abort",
        help="what to do with delivery codes missing from the KB",
    )
    mine_cmd.add_argument("--max-nodes", type=int, default=None, help="search node budget")
    mine_cmd.add_argument(
        "--max-seconds", type=float, default=None, help="search wall-clock budget"
    )
    mine_cmd.add_argument(
        "--class-filter-exact", action="store_true",
        help="match the class filter exactly instead of by taxonomy descent",
    )

    synth_cmd = sub.add_parser("synth", help="generate a synthetic cohort")
    synth_cmd.add_argument("--patients", required=True, type=int, help="cohort size")
    synth_cmd.add_argument(
        "--plant", default=None,
        help="pattern to plant: ATC,GROUP,FLAG|...@COUNT",
    )
    synth_cmd.add_argument("--seed", required=True, type=int, help="RNG seed")
    synth_cmd.add_argument("--out-dir", required=True, help="directory for the CSV files")
    synth_cmd.add_argument(
        "--mean-events", type=float, default=6.0, help="mean noise deliveries per window"
    )
    synth_cmd.add_argument(
        "--noise-items", type=int, default=16, help="size of the noise item roster"
    )
    return parser


def _phase_seconds(started: float, ends: dict[str, float]) -> tuple[float, dict[str, float]]:
    """Total and per-phase wall seconds, to the millisecond.

    `ends` maps each phase, in run order, to the clock reading when it
    ended; each phase began where the previous one ended. Phases are
    differences of rounded cumulative times, so they add up to the
    rounded total.
    """
    phases = {}
    before = 0.0
    for phase, ended in ends.items():
        at = round(ended - started, 3)
        phases[phase] = round(at - before, 3)
        before = at
    return before, phases


def _peak_rss_mb() -> float | None:
    """The process's peak resident set so far, in MB, or None if unknown.

    `ru_maxrss` counts KiB on Linux and bytes on macOS.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 3)


def run_mine(args: argparse.Namespace) -> int:
    """The mine command, run with the cyclic garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _mine(args)
    finally:
        if was_enabled:
            gc.enable()


def _mine(args: argparse.Namespace) -> int:
    started = time.monotonic()
    ends: dict[str, float] = {}
    # Option errors surface before any input file is read.
    options = MiningOptions(
        embeddings=args.embeddings,
        max_len=args.max_len,
        max_nodes=args.max_nodes,
        max_seconds=args.max_seconds,
    )
    try:
        # The query is opened once: a pipe could not be read a second time.
        with open(args.query, "rb") as handle:
            query_bytes = handle.read()
    except OSError as exc:
        print(f"error: cannot read query: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        # parse_query drops a leading byte-order mark, as the CSV readers do.
        query_text = query_bytes.decode("utf-8")
    except UnicodeDecodeError:
        error = undecodable(args.query, io.BytesIO(query_bytes))
        print(f"error: cannot read query: {error}", file=sys.stderr)
        return USAGE_EXIT
    task = parse_query(query_text)

    kb = load_kb(args.kb, args.taxonomy)
    task = compile_query(task, kb, exact_class_match=args.class_filter_exact)
    raw = RawDatabase(load_deliveries(args.deliveries), load_diseases(args.diseases))
    patients_total = len(raw.patients())
    peaks = {"load": _peak_rss_mb()}
    ends["load"] = time.monotonic()
    database = build_database(raw, task, kb, unknown_code=args.unknown_code)
    deliveries_loaded, diseases_loaded = raw.delivery_count, raw.disease_count
    # The facts are in the database now, so the search can reuse their memory.
    del raw
    peaks["build"] = _peak_rss_mb()
    ends["build"] = time.monotonic()
    result = mine(task, database, options)
    peaks["mine"] = _peak_rss_mb()
    ends["mine"] = time.monotonic()
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.writelines(render_records(result))
    peaks["write"] = _peak_rss_mb()
    ends["write"] = time.monotonic()

    wall_seconds, phases = _phase_seconds(started, ends)
    report = {
        "patients_total": patients_total,
        "patients_with_index": len(database),
        "deliveries_loaded": deliveries_loaded,
        "diseases_loaded": diseases_loaded,
        "pattern_count": len(result.records),
        "complete": result.complete,
        "nodes_expanded": result.nodes_expanded,
        "wall_seconds": wall_seconds,
        # Wall seconds of load, build, mine and write; they add up to wall_seconds.
        "phases": phases,
        # The process's peak resident set, in MB, after each phase.
        "peak_rss_mb": peaks,
        # The search's counters: support_pruned, switch_pruned, negative_checks.
        "counters": result.counters,
        "config": {
            **{name: value for name, value in vars(args).items() if name != "command"},
            "min_support": task.min_support,
        },
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    if not result.complete:
        print("warning: resource budget exhausted, results are incomplete", file=sys.stderr)
        return INCOMPLETE_EXIT
    return 0


def run_synth(args: argparse.Namespace) -> int:
    plant = PlantSpec.parse(args.plant) if args.plant else None
    config = CohortConfig(
        patients=args.patients,
        seed=args.seed,
        plant=plant,
        mean_events=args.mean_events,
        noise_items=args.noise_items,
    )
    cohort = generate_cohort(config)
    paths = write_cohort(cohort, args.out_dir)
    print(
        json.dumps(
            {
                "patients": config.patients,
                "planted_patients": len(cohort.planted_patients),
                "deliveries": len(cohort.deliveries),
                "diseases": len(cohort.diseases),
                "files": paths,
                "seed": config.seed,
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        if args.command == "mine":
            return run_mine(args)
        return run_synth(args)
    except (QueryError, InvalidPlantSpec, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (PathmineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    raise SystemExit(main())

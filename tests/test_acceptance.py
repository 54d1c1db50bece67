"""Acceptance gate. One test per headline guarantee, one printed verdict each.

Run order matters for readability only; every test is independent. Each
test prints exactly one PASS/FAIL line on the real stdout (bypassing
capture) so the verdicts survive in any log.
"""

import json
import time

import pytest

from pathmine.builder import CaseDatabase, CasePair, build_database
from pathmine.cli import main
from pathmine.engine import MiningOptions, mine
from pathmine.ingest import RawDatabase
from pathmine.knowledge import CodeAttributes, KnowledgeBase, Taxonomy
from pathmine.model import Item, Pattern
from pathmine.oracle import count_switches, discriminative_support, oracle_mine, positive_support
from pathmine.query import compile_query, parse_query
from pathmine.synth import CohortConfig, PlantSpec, generate_cohort, knowledge_base, raw_database

from conftest import ALPHABET, STUDY_QUERY, make_seq, make_task, random_instance

SEEDS = range(108)
ORACLE_MAX_LEN = 6

STUDY_ITEMS = [["N03AG01", "438", 1], ["N03AG01", "438", 1],
               ["N03AX14", "1023", 0], ["N03AX14", "1023", 0]]

SUPPORT_ONLY_QUERY = """\
index_event first diagnosis in {G40, G41};
event delivery where atc in {N03AX09, N03AX14, N03AX11, N03AG01, N03AF01}
      as (atc, group, generic);
window positive (index-90, index);
min_support 20;
"""


@pytest.fixture()
def verdict(capsys):
    def emit(name, ok, detail=""):
        with capsys.disabled():
            suffix = f"  [{detail}]" if detail else ""
            print(f"{'PASS' if ok else 'FAIL'}: {name}{suffix}")
        assert ok, f"{name}: {detail}"

    return emit


@pytest.fixture(scope="module")
def mined_instances():
    """Engine output (all embeddings, pruning on) for every seed, reused twice."""
    out = {}
    for seed in SEEDS:
        task, database = random_instance(seed)
        result = mine(task, database, MiningOptions(embeddings="all", max_len=ORACLE_MAX_LEN))
        out[seed] = (task, database, result.patterns)
    return out


@pytest.fixture(scope="module")
def planted_cohort(tmp_path_factory):
    """1,000-patient cohort with the study pattern planted in exactly 25."""
    out = tmp_path_factory.mktemp("cohort1k")
    code = main(
        [
            "synth",
            "--patients", "1000",
            "--seed", "7",
            "--plant", "N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0|N03AX14,1023,0@25",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


def run_study_query(cohort_dir, tmp_path, query_text, out_name, extra=()):
    query = tmp_path / f"{out_name}.pmq"
    query.write_text(query_text, encoding="utf-8")
    out = tmp_path / f"{out_name}.jsonl"
    code = main(
        [
            "mine",
            "--query", str(query),
            "--deliveries", str(cohort_dir / "deliveries.csv"),
            "--diseases", str(cohort_dir / "diseases.csv"),
            "--kb", str(cohort_dir / "kb_attributes.csv"),
            "--taxonomy", str(cohort_dir / "taxonomy.csv"),
            "--out", str(out),
            *extra,
        ]
    )
    assert code == 0
    return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]


def test_criterion_oracle_equivalence(mined_instances, verdict):
    started = time.perf_counter()
    mismatches = []
    for seed in SEEDS:
        task, database, engine_patterns = mined_instances[seed]
        expected = oracle_mine(task, database, max_len=ORACLE_MAX_LEN)
        # PatternTuple stores its fields as given; the oracle's records must
        # hold the invariants every record promises.
        consistent = all(
            pt.supported == frozenset(pt.embeddings)
            and all(pt.embeddings.values())
            and (pt.discriminative is None or pt.discriminative <= pt.supported)
            for pt in expected
        )
        if engine_patterns != expected or not consistent:
            mismatches.append(seed)
    elapsed = time.perf_counter() - started
    verdict(
        "oracle equivalence",
        not mismatches and elapsed < 60.0,
        f"{len(SEEDS)} seeded instances, {elapsed:.1f}s, mismatching seeds: {mismatches or 'none'}",
    )


def test_criterion_witness_mode(mined_instances, verdict):
    mismatches = []
    for seed in SEEDS:
        task, database, all_mode = mined_instances[seed]
        witness_mode = mine(
            task, database, MiningOptions(embeddings="witness", max_len=ORACLE_MAX_LEN)
        ).patterns
        expected = oracle_mine(task, database, max_len=ORACLE_MAX_LEN)
        same_results = [
            (pt.pattern, pt.supported, pt.discriminative) for pt in witness_mode
        ] == [(pt.pattern, pt.supported, pt.discriminative) for pt in all_mode]
        leftmost = len(witness_mode) == len(expected) and all(
            got.embeddings[patient] == {min(embs)}
            for got, want in zip(witness_mode, expected)
            for patient, embs in want.embeddings.items()
        )
        if not (same_results and leftmost):
            mismatches.append(seed)
    verdict(
        "witness mode",
        not mismatches,
        f"{len(SEEDS)} seeded instances against all mode and the oracle's leftmost "
        f"embedding, mismatching seeds: {mismatches or 'none'}",
    )


def test_criterion_pruning_neutrality(mined_instances, verdict):
    mismatches = []
    for seed in SEEDS:
        task, database, pruned = mined_instances[seed]
        unpruned = mine(
            task,
            database,
            MiningOptions(embeddings="all", max_len=ORACLE_MAX_LEN, prune=False),
        ).patterns
        if pruned != unpruned:
            mismatches.append(seed)
    verdict(
        "pruning neutrality",
        not mismatches,
        f"{len(SEEDS)} seeded instances, mismatching seeds: {mismatches or 'none'}",
    )


def test_criterion_study_query_end_to_end(planted_cohort, tmp_path, verdict):
    started = time.perf_counter()
    records = run_study_query(planted_cohort, tmp_path, STUDY_QUERY, "study")
    elapsed = time.perf_counter() - started

    planted = [rec for rec in records if rec["items"] == STUDY_ITEMS]
    planted_ok = len(planted) == 1 and len(planted[0]["discriminative_support"]) == 25
    shape_ok = all(
        count_switches(Pattern(tuple(Item(tuple(v)) for v in rec["items"])), 2) == 1
        and {item[2] for item in rec["items"]} == {0, 1}
        for rec in records
    )
    verdict(
        "study query end to end",
        planted_ok and shape_ok and elapsed < 10.0,
        f"{len(records)} patterns, planted discr "
        f"{len(planted[0]['discriminative_support']) if planted else 'missing'}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_constraint_subset(planted_cohort, tmp_path, verdict):
    constrained = run_study_query(planted_cohort, tmp_path, STUDY_QUERY, "constrained")
    support_only = run_study_query(planted_cohort, tmp_path, SUPPORT_ONLY_QUERY, "support_only")
    as_keys = lambda recs: {tuple(tuple(item) for item in rec["items"]) for rec in recs}
    constrained_keys, support_keys = as_keys(constrained), as_keys(support_only)
    verdict(
        "constrained run is a strict subset of the support-only run",
        constrained_keys < support_keys,
        f"{len(constrained_keys)} constrained vs {len(support_keys)} support-only patterns",
    )


def test_criterion_semantics_spot_checks(verdict):
    a = ALPHABET[0]
    pattern = Pattern((a,))
    database = CaseDatabase(
        (
            CasePair("p1", make_seq([a]), make_seq([])),
            CasePair("p2", make_seq([a]), make_seq([a])),
        )
    )
    discr_ok = (
        discriminative_support(pattern, database) == frozenset({"p1"})
        and positive_support(pattern, database) == frozenset({"p1", "p2"})
    )

    # Windows (index-90, index) and (index-180, index-90) around index day 200.
    deliveries = [("p1", day, "C", 1) for day in (20, 109, 110, 111, 200)]
    raw = RawDatabase(deliveries, [("p1", 200, "G40")])
    kb = KnowledgeBase(CodeAttributes.from_rows([("C", *a.values)]), Taxonomy())
    (pair,) = build_database(raw, make_task(discriminative=True), kb).pairs
    boundary_ok = (
        tuple(day for day, _ in pair.positive) == (111,)
        and tuple(day for day, _ in pair.negative) == (109,)
    )

    def flags(*values):
        return Pattern(tuple(Item(("X", "1", v)) for v in values))

    switch_ok = (
        count_switches(flags(1, 1, 0, 0), 2) == 1
        and count_switches(flags(0, 0), 2) == 0
        and count_switches(flags(1, 0, 1, 0), 2) == 3
    )
    verdict(
        "semantics spot checks",
        discr_ok and boundary_ok and switch_ok,
        f"discriminative exclusion {discr_ok}, strict boundary {boundary_ok}, "
        f"switch counts {switch_ok}",
    )


def test_criterion_performance_envelope(verdict):
    config = CohortConfig(
        patients=10_000,
        seed=42,
        plant=PlantSpec.parse(
            "N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0|N03AX14,1023,0@250"
        ),
        mean_events=20.0,
        noise_items=200,
    )
    cohort = generate_cohort(config)
    kb = knowledge_base(cohort)
    task = compile_query(
        parse_query(STUDY_QUERY.replace("min_support 20", "min_support 200")), kb
    )

    started = time.perf_counter()
    database = build_database(raw_database(cohort), task, kb)
    result = mine(task, database)
    elapsed = time.perf_counter() - started
    verdict(
        "performance envelope",
        result.complete and elapsed < 30.0,
        f"10,000 patients built and mined in {elapsed:.1f}s, {len(result.patterns)} patterns",
    )

"""Case-crossover construction: index events, windows, database assembly."""

import hashlib
import json
from dataclasses import replace

import pytest

from pathmine.builder import (
    CaseDatabase,
    CasePair,
    CodeTable,
    IndexEventRule,
    WindowSpec,
    build_database,
    find_index_event,
)
from pathmine.errors import UnknownCode
from pathmine.ingest import RawDatabase
from pathmine.knowledge import CodeAttributes, KnowledgeBase, Taxonomy
from pathmine.model import EventSequence, Item
from pathmine.query import compile_query, parse_query
from pathmine.synth import CohortConfig, PlantSpec, generate_cohort

from conftest import SCHEMA, STUDY_QUERY, knowledge_base, make_task

RULE = IndexEventRule(frozenset({"G40", "G41"}))
TAX = Taxonomy.from_edges([("G403", "G40"), ("G410", "G41")])

KB = KnowledgeBase(
    CodeAttributes.from_rows(
        [
            ("GEN", "N03AG01", "438", 1),
            ("BRA", "N03AX14", "1023", 0),
            ("OTC", "N02BE01", "900", 0),
        ]
    ),
    TAX,
)


WINDOWS = (WindowSpec(-90, 0), WindowSpec(-180, -90))


def case_pair(*deliveries, windows=WINDOWS):
    """Patient p's case pair for index day 200, classes N03AG01 and N03AX14."""
    positive, negative = windows
    task = replace(
        make_task(class_filter=frozenset({"N03AG01", "N03AX14"})),
        positive_window=positive,
        negative_window=negative,
    )
    raw = RawDatabase(deliveries, (("p", 200, "G403"),))
    (pair,) = build_database(raw, task, KB).pairs
    return pair


class TestWindowSpec:
    def test_bounds_strict_on_both_ends(self):
        positive, negative = WINDOWS
        index = 200
        assert 199 in positive.days(index) and 111 in positive.days(index)
        assert 200 not in positive.days(index)
        # Day index-90 falls in neither window.
        assert 110 not in positive.days(index)
        assert 110 not in negative.days(index)
        assert 109 in negative.days(index) and 21 in negative.days(index)
        assert 20 not in negative.days(index)

    def test_offsets_validated(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 0)
        with pytest.raises(ValueError):
            WindowSpec(-10, 5)

    def test_rule_needs_codes(self):
        with pytest.raises(ValueError):
            IndexEventRule(frozenset())


def index_event(facts):
    """Patient p's index day, from the diagnoses grouped as the builder reads them."""
    return find_index_event(RawDatabase(diseases=facts).disease_groups["p"], RULE.qualifier(TAX))


class TestFindIndexEvent:
    def test_earliest_qualifying_day(self):
        facts = [("p", 100, "G403"), ("p", 50, "G410")]
        assert index_event(facts) == 50

    def test_ancestor_membership_via_taxonomy(self):
        assert index_event([("p", 9, "G403")]) == 9

    def test_no_qualifying_diagnosis(self):
        assert index_event([("p", 5, "I10")]) is None

    def test_same_day_tie_is_single_index(self):
        facts = [("p", 50, "G403"), ("p", 50, "G410")]
        assert index_event(facts) == 50

    def test_permutation_invariant(self):
        facts = [("p", 80, "G403"), ("p", 30, "I10"), ("p", 60, "G410")]
        days = {index_event(list(perm)) for perm in (facts, facts[::-1])}
        assert days == {60}


class TestBuildCasePair:
    def test_boundary_day_in_neither_window(self):
        pair = case_pair(("p", 110, "GEN", 1))
        assert len(pair.positive) == 0
        assert len(pair.negative) == 0

    def test_generic_delivery_lands_positive(self):
        pair = case_pair(("p", 199, "GEN", 1))
        assert pair.positive.items() == (Item(("N03AG01", "438", 1)),)
        assert len(pair.negative) == 0

    def test_control_window_delivery_lands_negative(self):
        pair = case_pair(("p", 60, "BRA", 1))
        assert pair.negative.items() == (Item(("N03AX14", "1023", 0)),)

    def test_unfiltered_class_absent_from_both(self):
        pair = case_pair(("p", 190, "OTC", 1), ("p", 60, "OTC", 1))
        assert len(pair.positive) == 0 and len(pair.negative) == 0

    def test_no_negative_window_gives_none(self):
        pair = case_pair(("p", 199, "GEN", 1), windows=(WINDOWS[0], None))
        assert pair.negative is None

    def test_windows_partition_deliveries(self):
        facts = [("p", day, "GEN", 1) for day in range(10, 200, 7)]
        pair = case_pair(*facts)
        pos_days = {day for day, _ in pair.positive}
        neg_days = {day for day, _ in pair.negative}
        assert not pos_days & neg_days
        assert all(110 < day < 200 for day in pos_days)
        assert all(20 < day < 110 for day in neg_days)

    @pytest.mark.parametrize(
        "positive, negative, positive_days, negative_days",
        [
            # Days 111-199 and 81-169: positive wins the shared 111-169.
            (WindowSpec(-90, 0), WindowSpec(-120, -30), [150, 190], [100]),
            # The control window's days 21-199 hold the whole positive window.
            (WindowSpec(-90, -30), WindowSpec(-180, 0), [150], [50, 75, 100, 190]),
        ],
    )
    def test_overlapping_windows_give_shared_days_to_positive(
        self, positive, negative, positive_days, negative_days
    ):
        facts = [("p", day, "GEN", 1) for day in (50, 75, 100, 150, 190)]
        pair = case_pair(*facts, windows=(positive, negative))
        assert [day for day, _ in pair.positive] == positive_days
        assert [day for day, _ in pair.negative] == negative_days


class TestUnknownCodePolicy:
    def test_abort_raises(self):
        table = CodeTable(KB, None, ("atc",), unknown_code="abort")
        with pytest.raises(UnknownCode):
            table["NOPE"]

    def test_skip_drops(self):
        table = CodeTable(KB, None, ("atc",), unknown_code="skip")
        assert table["NOPE"] is None

    def test_projection_follows_schema_order(self):
        table = CodeTable(KB, None, ("generic", "atc"))
        assert table.items[table["GEN"]] == Item((1, "N03AG01"))

    def test_abort_only_for_codes_inside_a_window(self):
        task = make_task(discriminative=True, class_filter=None)
        # Day 10 is before the control window (20, 110) of index day 200.
        raw = RawDatabase(
            deliveries=(("p1", 10, "NOPE", 1), ("p1", 150, "GEN", 1)),
            diseases=(("p1", 200, "G403"),),
        )
        assert len(build_database(raw, task, KB).pairs[0].positive) == 1
        inside = RawDatabase(
            deliveries=(("p1", 150, "NOPE", 1),),
            diseases=(("p1", 200, "G403"),),
        )
        with pytest.raises(UnknownCode):
            build_database(inside, task, KB)
        # A lookup that raised is not remembered: the code raises again.
        table = CodeTable(KB, None, SCHEMA, unknown_code="abort")
        for _ in range(2):
            with pytest.raises(UnknownCode):
                table["NOPE"]


    def test_an_unknown_policy_rejected(self):
        raw = RawDatabase(deliveries=(), diseases=())
        with pytest.raises(ValueError) as err:
            build_database(raw, make_task(), KB, unknown_code="x")
        assert str(err.value) == "unknown_code must be abort or skip, got 'x'"

    def test_abort_raises_the_earliest_unknown_code_in_a_window(self):
        task = make_task(discriminative=True, class_filter=None)
        # The positive window's code comes first in the input, the control
        # window's first in day order; deliveries are mapped in day order.
        raw = RawDatabase(
            deliveries=(("p1", 150, "LATER", 1), ("p1", 60, "EARLIER", 1)),
            diseases=(("p1", 200, "G403"),),
        )
        with pytest.raises(UnknownCode, match="EARLIER"):
            build_database(raw, task, KB)

    def test_earliest_unknown_code_when_the_control_window_wraps_the_positive(self):
        # Control days 21-199 around positive days 111-169: the control
        # window's later part comes after the positive window in day order.
        task = replace(
            make_task(discriminative=True, class_filter=None),
            positive_window=WindowSpec(-90, -30),
            negative_window=WindowSpec(-180, 0),
        )
        raw = RawDatabase(
            deliveries=(("p1", 190, "LATER", 1), ("p1", 150, "EARLIER", 1)),
            diseases=(("p1", 200, "G403"),),
        )
        with pytest.raises(UnknownCode, match="EARLIER"):
            build_database(raw, task, KB)


class TestBuildDatabase:
    def raw(self):
        return RawDatabase(
            deliveries=(
                ("p1", 199, "GEN", 1),
                ("p2", 150, "BRA", 1),
                ("p3", 10, "GEN", 1),
            ),
            diseases=(
                ("p1", 200, "G403"),
                ("p2", 200, "G410"),
                ("p3", 5, "I10"),
            ),
        )

    def test_patients_without_index_event_excluded(self):
        db = build_database(self.raw(), make_task(), KB)
        assert db.patients() == ("p1", "p2")

    def test_empty_window_pair_retained(self):
        raw = RawDatabase(
            deliveries=(),
            diseases=(("p1", 200, "G403"),),
        )
        db = build_database(raw, make_task(), KB)
        assert len(db) == 1
        assert len(db.pairs[0].positive) == 0

    def test_index_at_day_zero_gives_empty_windows(self):
        raw = RawDatabase(
            deliveries=(("p1", 0, "GEN", 1),),
            diseases=(("p1", 0, "G403"),),
        )
        db = build_database(raw, make_task(discriminative=True), KB)
        assert len(db.pairs[0].positive) == 0
        assert len(db.pairs[0].negative) == 0

    def test_task_without_negative_window(self):
        task = make_task(discriminative=False)
        db = build_database(self.raw(), task, KB)
        assert not db.has_negatives

    def test_class_filter_applies(self):
        task = make_task(class_filter=frozenset({"N03AG01"}))
        db = build_database(self.raw(), task, KB)
        by_patient = {pair.patient: pair for pair in db}
        assert len(by_patient["p1"].positive) == 1
        assert len(by_patient["p2"].positive) == 0

    def test_seeded_cohort_pinned(self):
        """Every sequence's patient, days and item values, as pinned by SHA-256."""
        cohort = generate_cohort(
            CohortConfig(
                patients=300,
                seed=2017,
                plant=PlantSpec.parse(
                    "N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0|N03AX14,1023,0@20"
                ),
                mean_events=12.0,
                noise_items=40,
            )
        )
        kb = knowledge_base(cohort)
        # A negative window and a class filter that drops the comedication.
        task = compile_query(parse_query(STUDY_QUERY), kb)
        db = build_database(RawDatabase(cohort.deliveries, cohort.diseases), task, kb)
        digest = hashlib.sha256()
        for pair in db.pairs:
            for sequence in (pair.positive, pair.negative):
                days = [day for day, _ in sequence]
                values = [list(item.values) for _, item in sequence]
                digest.update(json.dumps([pair.patient, days, values]).encode())
        assert digest.hexdigest() == (
            "17fa98ddcb4a90e1f1240d2ee4c805a9de206b69fc75479e41a4c1b3c1ea576c"
        )
        keys = [item.sort_key() for item in db.items]
        assert all(left < right for left, right in zip(keys, keys[1:]))

    def test_hand_built_pairs_share_one_id_per_item(self):
        db = CaseDatabase(
            (
                CasePair("p2", EventSequence(((3, Item(("B", "1", 0))),))),
                CasePair("p1", EventSequence(((5, Item(("B", "1", 0))), (5, Item(("A", "1", 1)))))),
            )
        )
        assert db.items == (Item(("A", "1", 1)), Item(("B", "1", 0)))
        assert db.patients() == ("p1", "p2")
        # Keys day * 2 + id, two items.
        assert db.positives == ((5 * 2 + 0, 5 * 2 + 1), (3 * 2 + 1,))
        assert [day for day, _ in db.pairs[0].positive] == [5, 5]
        assert db.negatives is None and not db.has_negatives

    def test_mixed_shapes_rejected(self):
        seq = EventSequence()
        with pytest.raises(ValueError):
            CaseDatabase((CasePair("p1", seq, None), CasePair("p2", seq, seq)))

    def test_duplicate_patients_rejected(self):
        seq = EventSequence()
        with pytest.raises(ValueError):
            CaseDatabase((CasePair("p1", seq), CasePair("p1", seq)))


class TestSharedItems:
    KB = KnowledgeBase(
        CodeAttributes.from_rows(
            [
                ("GEN", "N03AG01", "438", 1),
                # Another product code reified as the same item as GEN.
                ("GE2", "N03AG01", "438", 1),
                ("BRA", "N03AX14", "1023", 0),
            ]
        ),
        TAX,
    )
    RAW = RawDatabase(
        deliveries=(
            ("p1", 150, "GEN", 1),
            ("p1", 199, "GEN", 1),
            ("p1", 60, "BRA", 1),
            ("p2", 180, "GE2", 1),
            ("p2", 190, "BRA", 1),
            ("p2", 70, "GEN", 1),
            ("p2", 5, "BRA", 1),
        ),
        diseases=(("p1", 200, "G403"), ("p2", 200, "G410")),
    )
    TASK = make_task(discriminative=True, class_filter=None)

    def test_one_item_object_per_distinct_item(self):
        db = build_database(self.RAW, self.TASK, self.KB)
        items = [
            item for pair in db for seq in (pair.positive, pair.negative) for item in seq.items()
        ]
        assert len(items) == 6
        assert len(set(items)) == 2
        assert len({id(item) for item in items}) == 2

    def test_code_table_consulted_once_per_distinct_code(self, monkeypatch):
        looked_up = []
        real = CodeAttributes.attributes

        def counting(self, cip):
            looked_up.append(cip)
            return real(self, cip)

        monkeypatch.setattr(CodeAttributes, "attributes", counting)
        build_database(self.RAW, self.TASK, self.KB)
        assert sorted(looked_up) == ["BRA", "GE2", "GEN"]

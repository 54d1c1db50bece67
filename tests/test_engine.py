"""Mining engine: search, supports, switch counts, emission, budgets."""

import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import pathmine.engine
import pathmine.model

from pathmine.builder import CaseDatabase, CasePair, build_database
from pathmine.engine import MiningOptions, _Prepared, _emittable, _frequent, mine
from pathmine.errors import MissingNegativeWindow
from pathmine.ingest import RawDatabase
from pathmine.model import Item, Pattern
from pathmine.oracle import (
    _satisfies,
    count_switches,
    discriminative_support,
    oracle_mine,
    positive_support,
)
from pathmine.query import SwitchCount, compile_query, parse_query
from pathmine.synth import CohortConfig, PlantSpec, generate_cohort

from conftest import ALPHABET, STUDY_QUERY, knowledge_base, make_seq, make_task, random_instance

A, B = Item(("A1", "10", 0)), Item(("A1", "11", 1))
GEN = Item(("N03AG01", "438", 1))
BRA = Item(("N03AX14", "1023", 0))


def tiny_db():
    # s1: <a, b>, s2: <a>, s3: <b>
    return CaseDatabase(
        (
            CasePair("s1", make_seq([A, B])),
            CasePair("s2", make_seq([A])),
            CasePair("s3", make_seq([B])),
        )
    )


def paired_db(rows):
    """rows: (patient, positive items, negative items)."""
    return CaseDatabase(
        tuple(
            CasePair(p, make_seq(pos), make_seq(neg))
            for p, pos, neg in rows
        )
    )


class TestMine:
    def test_tiny_database_support_two(self):
        result = mine(make_task(f_min=2), tiny_db())
        assert result.complete
        found = {pt.pattern.items: pt.supported for pt in result.patterns}
        assert found == {(A,): {"s1", "s2"}, (B,): {"s1", "s3"}}

    def test_unsatisfiable_bound_gives_empty(self):
        result = mine(make_task(f_min=4), tiny_db())
        assert result.patterns == ()

    def test_empty_pattern_never_emitted(self):
        result = mine(make_task(f_min=1), tiny_db())
        assert all(len(pt.pattern) >= 1 for pt in result.patterns)

    def test_output_canonically_sorted(self):
        result = mine(make_task(f_min=1), tiny_db())
        keys = [pt.pattern.sort_key() for pt in result.patterns]
        assert keys == sorted(keys)

    def test_embeddings_all_mode(self):
        db = CaseDatabase((CasePair("p", make_seq([A, A, B])),))
        result = mine(make_task(), db, MiningOptions(embeddings="all"))
        by_pattern = {pt.pattern.items: pt for pt in result.patterns}
        assert by_pattern[(A, B)].embeddings["p"] == {(1, 3), (2, 3)}

    def test_embeddings_witness_mode_is_leftmost(self):
        db = CaseDatabase((CasePair("p", make_seq([A, A, B])),))
        result = mine(make_task(), db, MiningOptions(embeddings="witness"))
        by_pattern = {pt.pattern.items: pt for pt in result.patterns}
        assert by_pattern[(A, B)].embeddings["p"] == {(1, 3)}

    def test_max_len_caps_pattern_length(self):
        db = CaseDatabase((CasePair("p", make_seq([A, B, A, B])),))
        result = mine(make_task(), db, MiningOptions(max_len=2))
        assert max(len(pt.pattern) for pt in result.patterns) == 2

    def test_discriminative_task_requires_negatives(self):
        with pytest.raises(MissingNegativeWindow):
            mine(make_task(discriminative=True), tiny_db())

    def test_empty_database(self):
        result = mine(make_task(), CaseDatabase(()))
        assert result.patterns == () and result.complete


class TestSupports:
    def test_absent_pattern_has_empty_support(self):
        assert positive_support(Pattern((Item(("Z", "1", 0)),)), tiny_db()) == frozenset()

    def test_empty_pattern_supported_by_all(self):
        assert positive_support(Pattern(), tiny_db()) == {"s1", "s2", "s3"}

    def test_discriminative_excludes_negative_matches(self):
        db = paired_db(
            [
                ("p1", [GEN, BRA], [GEN]),      # negative lacks the pair: counts
                ("p2", [GEN, BRA], [GEN, BRA]), # supported in both: excluded
                ("p3", [BRA], [])               # does not support positively
            ]
        )
        pattern = Pattern((GEN, BRA))
        assert positive_support(pattern, db) == {"p1", "p2"}
        assert discriminative_support(pattern, db) == {"p1"}

    def test_empty_negative_sequence_counts(self):
        db = paired_db([("p1", [GEN], [])])
        assert discriminative_support(Pattern((GEN,)), db) == {"p1"}

    def test_raises_without_negative_windows(self):
        with pytest.raises(MissingNegativeWindow):
            discriminative_support(Pattern((A,)), tiny_db())

    def test_discriminative_never_exceeds_positive(self):
        for seed in range(30):
            task, db = random_instance(seed * 2 + 1)  # odd seeds carry negatives
            for length in (1, 2):
                for item in ALPHABET:
                    pattern = Pattern((item,) * length)
                    assert discriminative_support(pattern, db) <= positive_support(pattern, db)


class TestCountSwitches:
    def test_study_result_pattern_has_one_switch(self):
        pattern = Pattern((GEN, GEN, BRA, BRA))
        assert count_switches(pattern, 2) == 1

    def test_constant_flags_zero(self):
        assert count_switches(Pattern((GEN, GEN, GEN)), 2) == 0

    def test_alternating_flags(self):
        pattern = Pattern((GEN, BRA, GEN, BRA))
        assert count_switches(pattern, 2) == 3

    def test_singleton_and_empty(self):
        assert count_switches(Pattern((GEN,)), 2) == 0
        assert count_switches(Pattern(), 2) == 0

    @given(st.lists(st.sampled_from([GEN, BRA]), min_size=1, max_size=6),
           st.sampled_from([GEN, BRA]))
    def test_non_decreasing_under_extension(self, items, extra):
        before = count_switches(Pattern(tuple(items)), 2)
        after = count_switches(Pattern(tuple(items) + (extra,)), 2)
        assert after >= before
        assert after <= before + 1


class TestCheckConstraints:
    """The engine's one emission test, `_emittable`, on hand-made prefixes.

    Each prefix spells a pattern over a database holding GEN and BRA,
    so every constraint is read off the prefix as the search reads it.
    A node that is not emitted may still be extended; which subtrees are
    pruned is pinned by `TestSwitchPruning` and `TestCounters`.
    """

    @staticmethod
    def emittable(task, support, pattern=(GEN,), discr_count=None):
        def unexpected():
            raise AssertionError("the discriminative count was not needed")

        db = CaseDatabase((CasePair("p", make_seq([GEN, BRA])),))
        prep = _Prepared(task, db)
        prefix = tuple(map(db.items.index, pattern))
        return _emittable(prefix, support, prep, discr_count or unexpected)

    def test_support_below_threshold_prunes(self):
        task = make_task(f_min=20)
        assert self.emittable(task, 19) is False

    def test_switch_overshoot_prunes(self):
        # The pattern <GEN, BRA, GEN> switches twice.
        task = make_task(switch=[("generic", "==", 1)])
        assert self.emittable(task, 1, (GEN, BRA, GEN)) is False

    def test_switch_upper_bound_overshoot_prunes(self):
        task = make_task(switch=[("generic", "<=", 1)])
        assert self.emittable(task, 1, (GEN, BRA, GEN)) is False

    def test_switch_lower_bound_never_prunes(self):
        task = make_task(switch=[("generic", ">=", 1)])
        assert self.emittable(task, 1, (GEN, BRA, GEN)) is True

    def test_switch_undershoot_extends(self):
        task = make_task(switch=[("generic", "==", 1)])
        assert self.emittable(task, 1, (GEN, GEN)) is False

    def test_satisfied_node_emits(self):
        task = make_task(switch=[("generic", "==", 1)], contains=[("generic", 1)])
        assert self.emittable(task, 1, (GEN, BRA)) is True

    def test_unsatisfied_monotone_extends(self):
        task = make_task(contains=[("generic", 0)])
        assert self.emittable(task, 1, (GEN,)) is False

    def test_discriminative_filter_with_database(self):
        task = make_task(discriminative=True)
        db = paired_db([("p1", [GEN], []), ("p2", [GEN], [GEN])])

        def discr_count():
            return len(discriminative_support(Pattern((GEN,)), db))

        # Only p1 is discriminative; threshold 1 is still met.
        assert self.emittable(task, 2, discr_count=discr_count) is True
        strict = make_task(discriminative=True, f_min=2)
        assert self.emittable(strict, 2, discr_count=discr_count) is False

    def test_discriminative_count_requested_last(self):
        # Pruned or not yet emittable nodes never ask for the negative matching.
        task = make_task(f_min=2, discriminative=True, contains=[("generic", 0)])
        assert self.emittable(task, 1, (BRA,)) is False
        assert self.emittable(task, 2, (GEN,)) is False
        assert self.emittable(task, 2, (BRA,), discr_count=lambda: 2) is True


class TestPrefixSwitches:
    """`_Prepared.switches` against the oracle's `count_switches`."""

    ITEMS = (GEN, BRA, A, B)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(ITEMS), max_size=8))
    def test_counts_match_the_oracle(self, items):
        db = CaseDatabase((CasePair("p", make_seq(self.ITEMS)),))
        task = make_task(switch=[("generic", ">=", 0), ("atc", "<=", 3)])
        prep = _Prepared(task, db)
        pattern = Pattern(tuple(items))
        expected = [count_switches(pattern, 2), count_switches(pattern, 0)]
        assert prep.switches(tuple(map(db.items.index, items))) == expected


class TestSwitchIntervals:
    """Each switch bound's interval against the oracle's definition."""

    #: The largest bound value tried; counts go to TOP + 2.
    TOP = 3

    @staticmethod
    def switching(count):
        """A pattern whose generic flag switches exactly `count` times."""
        return Pattern(tuple((GEN, BRA)[k % 2] for k in range(count + 1)))

    @pytest.mark.parametrize("comparator", ["==", "<=", ">="])
    @pytest.mark.parametrize("value", range(TOP + 1))
    def test_interval_matches_the_oracle(self, comparator, value):
        constraint = ("generic", comparator, value)
        ((lo, hi),) = _Prepared(make_task(switch=[constraint]), CaseDatabase()).switch_bounds
        counts = range(self.TOP + 3)
        satisfied = [
            _satisfies(self.switching(count), [], [(2, SwitchCount(*constraint))])
            for count in counts
        ]
        for count in counts:
            assert count_switches(self.switching(count), 2) == count
            assert (lo <= count <= hi) is satisfied[count]
            # Past the top, no larger count satisfies the bound again.
            assert (count > hi) is not any(satisfied[count:])


class TestSwitchPruning:
    def test_overshooting_children_are_never_visited(self):
        db = CaseDatabase((CasePair("p", make_seq([GEN, BRA, GEN, BRA])),))
        # `== 0` overshoots exactly where `<= 0` does.
        for comparator in ("<=", "=="):
            task = make_task(switch=[("generic", comparator, 0)])
            pruned = mine(task, db, MiningOptions(prune=True))
            unpruned = mine(task, db, MiningOptions(prune=False))
            assert pruned.patterns == unpruned.patterns
            found = {pt.pattern.items for pt in pruned.patterns}
            assert found == {(GEN,), (BRA,), (GEN, GEN), (BRA, BRA)}
            # Only the two roots and the two switch-free pairs are expanded;
            # <GEN, BRA>, <GEN, GEN, BRA> and <BRA, GEN> are dropped unvisited.
            assert pruned.nodes_expanded == 4 < unpruned.nodes_expanded
            assert pruned.counters["switch_pruned"] == 3


class TestBudgets:
    def big_db(self):
        rng_items = [ALPHABET[i % 4] for i in range(24)]
        return CaseDatabase(
            tuple(
                CasePair(f"p{i}", make_seq(rng_items[i:] + rng_items[:i]))
                for i in range(8)
            )
        )

    def test_node_budget_flags_incomplete(self):
        result = mine(make_task(), self.big_db(), MiningOptions(max_nodes=5))
        assert not result.complete
        assert result.nodes_expanded <= 5

    def test_partial_results_still_sorted(self):
        result = mine(make_task(), self.big_db(), MiningOptions(max_nodes=7))
        keys = [pt.pattern.sort_key() for pt in result.patterns]
        assert keys == sorted(keys)

    def test_time_budget_flags_incomplete(self):
        result = mine(make_task(), self.big_db(), MiningOptions(max_seconds=0.0))
        assert not result.complete

    def test_no_budget_is_complete(self):
        result = mine(make_task(), self.big_db(), MiningOptions(max_len=3))
        assert result.complete

    @pytest.mark.parametrize(
        "lengths, max_len, units",
        [
            # C(30, 3) = 4,060 embeddings of A^3 in one patient cost 3 units.
            ((30,), 3, 3),
            # 2 * C(16, 3) = 1,120 embeddings of A^3 are counted across the
            # supporters, not per patient: 1 unit.
            ((16, 16), 3, 1),
            # The unit falls due at each full 1,024th embedding.
            ((1023,), 1, 0),
            ((1024,), 1, 1),
            ((2047,), 1, 1),
            ((2048,), 1, 2),
        ],
    )
    def test_all_mode_charges_a_unit_per_full_stride_of_embeddings(self, lengths, max_len, units):
        # The walk visits A, ..., A^max_len, one unit each, and charges the
        # embeddings of each as it emits it.
        db = CaseDatabase(
            tuple(CasePair(f"p{i}", make_seq([A] * length)) for i, length in enumerate(lengths))
        )
        budget = max_len + units
        options = MiningOptions(embeddings="all", max_len=max_len, max_nodes=budget)
        result = mine(make_task(), db, options)
        assert result.complete
        assert [len(record.prefix) for record in result.records] == list(range(1, max_len + 1))
        assert result.nodes_expanded == max_len
        # One unit less cuts the last pattern, whose node or enumeration runs out.
        options = MiningOptions(embeddings="all", max_len=max_len, max_nodes=budget - 1)
        result = mine(make_task(), db, options)
        assert not result.complete
        assert [len(record.prefix) for record in result.records] == list(range(1, max_len))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_nodes", -1),
            ("max_seconds", -0.001),
            ("max_seconds", float("nan")),
            ("max_seconds", float("inf")),
            ("max_seconds", float("-inf")),
            ("embeddings", "some"),
        ],
    )
    def test_nonsense_budget_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MiningOptions(**{field: value})


class TestDeterminism:
    def test_budgeted_runs_identical(self):
        # A node budget cuts the one depth-first walk at the same node every run.
        task, db = random_instance(135)
        full = mine(task, db, MiningOptions(embeddings="all"))
        budget = MiningOptions(embeddings="all", max_nodes=full.nodes_expanded // 3)
        first = mine(task, db, budget)
        second = mine(task, db, budget)
        assert not first.complete and not second.complete
        assert first.patterns == second.patterns
        assert 0 < len(first.patterns) < len(full.patterns)
        assert all(pt in full.patterns for pt in first.patterns)

    def test_larger_budget_extends_the_prefix(self):
        # One more node never loses a pattern: a budget's walk is a prefix
        # of every larger budget's walk.
        task, db = random_instance(135)
        full = mine(task, db)
        before = ()
        for max_nodes in range(full.nodes_expanded + 1):
            result = mine(task, db, MiningOptions(max_nodes=max_nodes))
            assert all(pt in result.patterns for pt in before)
            assert result.complete is (max_nodes == full.nodes_expanded)
            before = result.patterns
        assert before == full.patterns

    def test_repeated_runs_identical(self):
        task, db = random_instance(7)
        first = mine(task, db)
        second = mine(task, db)
        assert first.patterns == second.patterns


class TestLongSequences:
    def one_patient(self, length):
        return CaseDatabase((CasePair("p", make_seq([A] * length)),))

    def test_witness_mode_on_long_sequence(self):
        # One pattern per length, far deeper than the recursion limit.
        result = mine(make_task(), self.one_patient(2000), MiningOptions(embeddings="witness"))
        assert result.complete
        assert len(result.patterns) == 2000
        longest = result.patterns[-1]
        assert longest.embeddings["p"] == {tuple(range(1, 2001))}

    @pytest.mark.parametrize("held", [3, 1500])
    def test_deep_discriminative_chain(self, held):
        # A sorts before G, so the walk reaches A^1500 before any A^k G, and
        # every A^k G, up to 1,501 items long, is matched in the negative
        # sequence. One that holds the whole path leaves nothing discriminative.
        G = GEN
        db = paired_db([("p", [A] * 1500 + [G], [A] * held + [G])])
        task = make_task(discriminative=True, contains=[("generic", 1)])
        result = mine(task, db, MiningOptions(embeddings="witness"))
        assert result.complete
        assert [pt.pattern.items for pt in result.patterns] == [
            (A,) * k + (G,) for k in range(held + 1, 1501)
        ]
        assert all(pt.discriminative == {"p"} for pt in result.patterns)
        # One check per pattern holding G: A^k G for k from 0 to 1,500.
        assert result.counters["negative_checks"] == 1501

    def test_discriminative_check_is_linear_in_the_negative_sequence(self):
        # Every A^k is checked against a negative sequence whose As come
        # after 20,000 Bs. Seeking each item from the sequence's start, not
        # from after the previous match, would read the Bs once per item of
        # each prefix: 1.6 billion reads along the path, not 16 million.
        db = paired_db([("p", [A] * 400, [B] * 20_000 + [A] * 400)])
        started = time.monotonic()
        result = mine(make_task(discriminative=True), db, MiningOptions(embeddings="witness"))
        assert time.monotonic() - started < 5.0
        assert result.complete and not result.records
        assert result.counters["negative_checks"] == 400

    def test_all_mode_stops_at_the_deadline(self):
        # A^30 alone has C(60, 30) ~ 1.2e17 embeddings.
        started = time.monotonic()
        result = mine(
            make_task(), self.one_patient(60), MiningOptions(embeddings="all", max_seconds=0.5)
        )
        assert not result.complete
        assert time.monotonic() - started < 5.0

    def test_all_mode_stops_at_the_node_budget(self):
        # Every 1,024 embeddings spend one node. A^1 to A^3 cost 3 nodes plus
        # 34 for their 36,050 embeddings; A^4 alone has C(60, 4) = 487,635.
        started = time.monotonic()
        result = mine(
            make_task(), self.one_patient(60), MiningOptions(embeddings="all", max_nodes=50)
        )
        assert not result.complete
        assert time.monotonic() - started < 5.0
        # The pattern being emitted when the budget ran out is dropped.
        assert [len(pt.pattern) for pt in result.patterns] == [1, 2, 3]
        assert result.nodes_expanded == 4

    def test_all_mode_dead_ends_stay_under_the_deadline(self):
        # Only patterns holding the brand item are emitted. Each GEN^k BRA has
        # one embedding, but a walk that lets its GENs run past BRA tries
        # C(36, k) dead-end partial matches before finding that out.
        db = CaseDatabase((CasePair("p", make_seq([GEN] * 6 + [BRA] + [GEN] * 30)),))
        task = make_task(contains=[("generic", 0)])
        started = time.monotonic()
        result = mine(task, db, MiningOptions(embeddings="all", max_seconds=0.2))
        assert time.monotonic() - started < 1.0
        assert not result.complete

    def test_all_mode_memory_does_not_grow_with_the_budget(self):
        # The search enumerates every embedding it charges but keeps none:
        # 300 units stop inside A^4's C(60, 4) embeddings, 900 inside A^5's.
        database = self.one_patient(60)
        peaks = []
        tracemalloc.start()
        try:
            for max_nodes in (300, 900):
                tracemalloc.reset_peak()
                result = mine(make_task(), database, MiningOptions(embeddings="all", max_nodes=max_nodes))
                peaks.append(tracemalloc.get_traced_memory()[1])
                assert not result.complete
        finally:
            tracemalloc.stop()
        assert [len(record.prefix) for record in result.records] == [1, 2, 3, 4]
        assert peaks[1] <= 1.5 * peaks[0]

    def test_witness_mode_does_not_search_embeddings(self, monkeypatch):
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for module, name in (
            (pathmine.model, "find_embeddings"),
            (pathmine.model, "iter_embeddings"),
            (pathmine.engine, "iter_embeddings"),
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        db = CaseDatabase(
            (
                CasePair("p1", make_seq([A, B, A, B])),
                CasePair("p2", make_seq([B, A, A])),
            )
        )
        result = mine(make_task(), db, MiningOptions(embeddings="witness"))
        assert len(result.patterns) > 5
        assert calls == []


def leftmost(pattern, sequence):
    """The leftmost embedding, by the greedy scan `oracle.supports` makes."""
    positions = []
    rest = enumerate(sequence.items(), 1)
    for target in pattern.items:
        positions.append(next(pos for pos, item in rest if item == target))
    return tuple(positions)


class TestWitnessColumns:
    """Witness mode keeps position columns: one reference per supporter and item."""

    #: The witnesses' bytes per supporter-position entry measure about 17
    #: here, one list slot and the columns' headers, against about 35 for a
    #: tuple per supporter.
    MAX_BYTES_PER_ENTRY = 26

    @pytest.fixture(scope="class")
    def cohort(self):
        cohort = generate_cohort(
            CohortConfig(
                patients=600,
                seed=8,
                plant=PlantSpec.parse(
                    "N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0|N03AX14,1023,0@12"
                ),
                mean_events=20.0,
                noise_items=200,
            )
        )
        kb = knowledge_base(cohort)
        task = compile_query(parse_query(STUDY_QUERY.replace("min_support 20", "min_support 8")), kb)
        return task, build_database(RawDatabase(cohort.deliveries, cohort.diseases), task, kb)

    def test_columns_hold_the_leftmost_embeddings(self, cohort):
        task, database = cohort
        result = mine(task, database, MiningOptions(embeddings="witness"))
        assert len(result.records) > 100
        pairs = database.pairs
        for record in result.records:
            columns = record.witnesses
            assert len(columns) == len(record.prefix)
            assert all(
                type(column) is list
                and len(column) == len(record.seqs)
                and all(type(pos) is int for pos in column)
                for column in columns
            )
            pattern = Pattern(tuple(map(result.items.__getitem__, record.prefix)))
            assert list(result.embeddings(record)) == [
                (leftmost(pattern, pairs[s].positive),) for s in record.seqs
            ]

    def test_witnesses_cost_one_reference_per_supporter_and_item(self, cohort):
        # What a result keeps is what dropping it frees; all mode's result
        # is the same but for the witnesses.
        task, database = cohort
        kept = {}
        tracemalloc.start()
        try:
            for mode in ("witness", "all"):
                result = mine(task, database, MiningOptions(embeddings=mode))
                entries = sum(len(record.seqs) * len(record.prefix) for record in result.records)
                held = tracemalloc.get_traced_memory()[0]
                del result
                kept[mode] = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entries > 2000
        assert kept["witness"] - kept["all"] <= self.MAX_BYTES_PER_ENTRY * entries


class TestLastOccurrenceIndex:
    """The index against a brute-force first position at or after a start."""

    @staticmethod
    def first_positions(events, start):
        first = {}
        for pos in range(start, len(events)):
            first.setdefault(events[pos], pos)
        return first

    @staticmethod
    def prepared(sequences):
        db = CaseDatabase(
            tuple(
                CasePair(f"p{i}", make_seq([ALPHABET[k] for k in seq]))
                for i, seq in enumerate(sequences)
            )
        )
        return _Prepared(make_task(), db)

    def check(self, prep, seqs, starts, wanted_ids=None):
        tails = prep.tails(seqs, starts)
        counts = Counter(chain.from_iterable(tails))
        firsts = [self.first_positions(prep.pos_ids[s], start) for s, start in zip(seqs, starts)]
        expected_counts = {}
        for first in firsts:
            for iid in first:
                expected_counts[iid] = expected_counts.get(iid, 0) + 1
        assert dict(counts) == expected_counts
        wanted = {iid: ([], []) for iid in (counts if wanted_ids is None else wanted_ids)}
        prep.locate(seqs, starts, tails, wanted)
        assert wanted == {iid: self.located(firsts, iid) for iid in wanted}

    @staticmethod
    def located(firsts, iid):
        """The supporter indices holding iid, and their 1-based first positions of it."""
        found = [(k, first[iid] + 1) for k, first in enumerate(firsts) if iid in first]
        return [k for k, _ in found], [pos for _, pos in found]

    def test_every_start_of_random_sequences(self):
        rng = random.Random(20170)
        sequences = [[rng.randrange(4) for _ in range(rng.randint(0, 15))] for _ in range(40)]
        prep = self.prepared(sequences)
        for s, seq in enumerate(sequences):
            for start in range(len(seq) + 1):
                self.check(prep, [s], [start])

    def test_many_supporters_and_a_wanted_subset(self):
        rng = random.Random(4)
        sequences = [[rng.randrange(4) for _ in range(rng.randint(0, 15))] for _ in range(40)]
        prep = self.prepared(sequences)
        for _ in range(50):
            seqs = sorted(rng.sample(range(len(sequences)), rng.randint(1, 12)))
            starts = [rng.randint(0, len(sequences[s])) for s in seqs]
            self.check(prep, seqs, starts)
            self.check(prep, seqs, starts, wanted_ids=rng.sample(range(4), rng.randint(0, 4)))

    def test_identical_events_and_the_edges(self):
        prep = self.prepared([[2] * 9, [], [0, 1, 2, 3]])
        for start in (0, 1, 8, 9):
            self.check(prep, [0], [start])
        self.check(prep, [1], [0])
        # start == len(seq) leaves nothing; start == 0 leaves everything.
        assert prep.tails([2], [4]) == [()]
        assert sorted(prep.tails([2], [0])[0]) == [0, 1, 2, 3]
        self.check(prep, [0, 1, 2], [0, 0, 0])
        self.check(prep, [0, 1, 2], [9, 0, 4])


class TestLeafTest:
    """The bit-sliced leaf test against the Counter, on random nodes."""

    ITEMS = tuple(Item(("A1", str(10 + k), k % 2)) for k in range(40))

    @staticmethod
    def prepared(sequences):
        pairs = (CasePair(f"p{i}", make_seq(seq)) for i, seq in enumerate(sequences))
        return _Prepared(make_task(), CaseDatabase(tuple(pairs)))

    def random_prepared(self, rng, patients, items):
        alphabet = self.ITEMS[:items]
        return self.prepared(
            rng.choices(alphabet, k=rng.randint(0, 3 * items)) for _ in range(patients)
        )

    @staticmethod
    def check(prep, seqs, starts, bounds=()):
        """Both tests agree at min_support 1, above the supporters, and at
        2**b and 2**b - 1 for the b slices the counts and supporters need."""
        tails = prep.tails(seqs, starts)
        counts = Counter(chain.from_iterable(tails))
        masks = prep.masks(seqs, tails)
        assert masks == [sum(1 << iid for iid in tail) for tail in tails]
        top = max(counts.values(), default=0)
        bounds = {1, len(seqs) + 1, *bounds}
        for b in (top.bit_length(), len(seqs).bit_length()):
            bounds |= {2**b, 2**b - 1}
        for bound in bounds - {0}:
            frequent, present = _frequent(masks, bound)
            assert present == sum(1 << iid for iid in counts)
            assert present.bit_count() == len(counts)
            assert frequent == sum(1 << iid for iid, n in counts.items() if n >= bound)
            assert (not frequent) == (top < bound)

    @pytest.mark.parametrize("items", [1, 5, 40])
    def test_random_nodes(self, items):
        rng = random.Random(items)
        prep = self.random_prepared(rng, 60, items)
        for _ in range(200):
            seqs = sorted(rng.sample(range(60), rng.randint(1, 60)))
            starts = [rng.randint(0, len(prep.pos_ids[s])) for s in seqs]
            self.check(prep, seqs, starts, bounds=[rng.randint(1, len(seqs))])

    @pytest.mark.parametrize("supporters", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17])
    def test_counts_at_the_edge_of_the_slices(self, supporters):
        # Every supporter holds items 0 and 1, so their count is the supporter count.
        prep = self.prepared(self.ITEMS[: 2 + i % 3] for i in range(supporters))
        self.check(prep, list(range(supporters)), [0] * supporters)
        masks = prep.masks([0], prep.order[:1]) * supporters
        assert _frequent(masks, supporters)[0] == 0b11
        assert _frequent(masks, supporters + 1)[0] == 0

    def test_no_supporters_and_empty_tails(self):
        assert _frequent([], 1) == (0, 0)
        assert _frequent([0] * 9, 1) == (0, 0)
        prep = self.random_prepared(random.Random(1), 5, 3)
        self.check(prep, [0, 1, 2, 3, 4], [len(seq) for seq in prep.pos_ids])

    def test_firsts_are_first_positions(self):
        rng = random.Random(7)
        prep = self.random_prepared(rng, 30, 6)
        seqs = sorted(rng.sample(range(30), 20))
        firsts = [TestLastOccurrenceIndex.first_positions(prep.pos_ids[s], 0) for s in seqs]
        assert prep.firsts(seqs) == {
            iid: TestLastOccurrenceIndex.located(firsts, iid) for iid in set().union(*firsts)
        }


class TestInterning:
    @staticmethod
    def copied(seq):
        """The sequence with a fresh, equal Item object for every event."""
        if seq is None:
            return None
        days = [day for day, _ in seq]
        return make_seq([Item(tuple(item.values)) for _, item in seq], days)

    @pytest.mark.parametrize("seed", range(16))
    def test_equal_items_built_apart_mine_like_shared_ones(self, seed):
        task, shared = random_instance(seed)
        pairs = [
            CasePair(pair.patient, self.copied(pair.positive), self.copied(pair.negative))
            for pair in shared
        ]
        events = [item for pair in pairs for _, item in pair.positive]
        assert len({id(item) for item in events}) == len(events)
        apart = CaseDatabase(pairs)
        assert apart.items == shared.items
        assert apart.positives == shared.positives
        for mode in ("all", "witness"):
            options = MiningOptions(embeddings=mode)
            want, got = mine(task, shared, options), mine(task, apart, options)
            assert got.patterns == want.patterns
            assert (got.nodes_expanded, got.counters) == (want.nodes_expanded, want.counters)


class TestCounters:
    def test_hand_checked_instance(self):
        # Roots GEN and BRA. GEN's child BRA overshoots `switch <= 0`; BRA's
        # child GEN and <GEN, GEN>'s child BRA have one supporter each.
        # GEN, <GEN, GEN> and BRA each check both negative sequences.
        db = paired_db([("p1", [GEN, BRA, GEN], [GEN]), ("p2", [GEN, GEN, BRA], [])])
        task = make_task(f_min=2, discriminative=True, switch=[("generic", "<=", 0)])
        result = mine(task, db)
        assert {pt.pattern.items for pt in result.patterns} == {(GEN, GEN), (BRA,)}
        assert result.nodes_expanded == 3
        assert result.counters == {"support_pruned": 2, "switch_pruned": 1, "negative_checks": 6}

    def test_seeded_instance(self):
        task, db = random_instance(109)
        result = mine(task, db)
        assert result.complete
        assert result.counters == {"support_pruned": 10, "switch_pruned": 7, "negative_checks": 31}
        assert all(type(value) is int for value in result.counters.values())


@st.composite
def oracle_edge_instances(draw):
    """Up to 5 patients with up to 12 events over at most 3 items.

    Sequences this long over so few items repeat items after every
    frontier, which is where candidate location can go wrong.
    """
    alphabet = ALPHABET[: draw(st.integers(1, 3))]
    events = st.lists(st.sampled_from(alphabet), max_size=12)
    discriminative = draw(st.booleans())
    rows = [
        (f"p{i}", draw(events), draw(events) if discriminative else None)
        for i in range(draw(st.integers(1, 5)))
    ]
    contains = draw(st.lists(st.tuples(st.just("generic"), st.sampled_from([0, 1])), max_size=1))
    switch = draw(
        st.lists(
            st.tuples(st.just("generic"), st.sampled_from(["==", "<=", ">="]), st.integers(0, 2)),
            max_size=1,
        )
    )
    task = make_task(
        f_min=draw(st.integers(1, 3)),
        discriminative=discriminative,
        contains=contains,
        switch=switch,
    )
    db = CaseDatabase(
        tuple(
            CasePair(
                p,
                make_seq(pos),
                None if neg is None else make_seq(neg),
            )
            for p, pos, neg in rows
        )
    )
    return task, db


class TestOracleEdge:
    @settings(derandomize=True, deadline=None)
    @given(oracle_edge_instances())
    def test_engine_equals_oracle(self, instance):
        task, db = instance
        expected = oracle_mine(task, db, max_len=5)
        for prune in (True, False):
            everything = mine(task, db, MiningOptions(embeddings="all", max_len=5, prune=prune))
            assert everything.patterns == expected
            witness = mine(task, db, MiningOptions(embeddings="witness", max_len=5, prune=prune))
            assert [(pt.pattern, pt.supported, pt.discriminative) for pt in witness.patterns] == [
                (pt.pattern, pt.supported, pt.discriminative) for pt in expected
            ]
            for got, want in zip(witness.patterns, expected):
                assert got.embeddings == {p: {min(embs)} for p, embs in want.embeddings.items()}


class TestBothLeafTests:
    """Each leaf test, forced on every bounded node, against the oracle.

    Sequences of 40 to 60 events over 3 to 6 items, mined to length 3.
    Each sequence is mostly sorted by item and the later items are
    rarer, so that nodes ending in them have short tails and many are
    leaves.
    """

    ITEMS = tuple(Item(("A1", str(10 + k), k % 2)) for k in range(6))

    @staticmethod
    def instance(seed):
        rng = random.Random(seed)
        alphabet = TestBothLeafTests.ITEMS[: rng.randint(3, 6)]
        weights = [4.0**-k for k in range(len(alphabet))]
        discriminative = bool(seed & 1)

        def events():
            seq = sorted(rng.choices(range(len(alphabet)), weights, k=rng.randint(40, 60)))
            for _ in range(len(seq) // 10):
                i, j = rng.randrange(len(seq)), rng.randrange(len(seq))
                seq[i], seq[j] = seq[j], seq[i]
            return make_seq(alphabet[k] for k in seq)

        patients = rng.randint(2, 5)
        db = CaseDatabase(
            tuple(
                CasePair(f"p{i}", events(), events() if discriminative else None)
                for i in range(patients)
            )
        )
        task = make_task(
            f_min=rng.randint(1, patients),
            discriminative=discriminative,
            contains=[("generic", rng.choice([0, 1]))] if seed & 2 else [],
            switch=[("generic", rng.choice(["==", "<=", ">="]), rng.randint(0, 2))]
            if seed & 4
            else [],
        )
        return task, db

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("mask_mean_tail", [0, math.inf], ids=["always_mask", "never_mask"])
    def test_engine_equals_oracle(self, monkeypatch, mask_mean_tail, seed):
        monkeypatch.setattr(pathmine.engine, "_MASK_MEAN_TAIL", mask_mean_tail)
        tested = []
        frequent = pathmine.engine._frequent

        def spy(masks, bound):
            tested.append(bound)
            return frequent(masks, bound)

        monkeypatch.setattr(pathmine.engine, "_frequent", spy)
        task, db = self.instance(seed)
        expected = oracle_mine(task, db, max_len=3)
        for prune in (True, False):
            witness = mine(task, db, MiningOptions(embeddings="witness", max_len=3, prune=prune))
            assert [(pt.pattern, pt.supported, pt.discriminative) for pt in witness.patterns] == [
                (pt.pattern, pt.supported, pt.discriminative) for pt in expected
            ]
            for got, want in zip(witness.patterns, expected):
                assert got.embeddings == {p: {min(embs)} for p, embs in want.embeddings.items()}
        assert bool(tested) == (mask_mean_tail == 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_paths_give_the_same_search(self, monkeypatch, seed):
        task, db = self.instance(seed)
        runs = []
        for mask_mean_tail in (0, math.inf):
            monkeypatch.setattr(pathmine.engine, "_MASK_MEAN_TAIL", mask_mean_tail)
            result = mine(task, db, MiningOptions(embeddings="witness", max_len=3))
            runs.append((result.records, result.nodes_expanded, result.counters))
        assert runs[0] == runs[1]

"""Core model: items, sequences, patterns, embedding search."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pathmine.model import (
    EventSequence,
    Item,
    Pattern,
    find_embeddings,
    iter_embeddings,
)
from pathmine.oracle import supports

from conftest import make_seq

A = Item(("N03AG01", "438", 1))
B = Item(("N03AX14", "1023", 0))
C = Item(("N03AX09", "500", 1))


class TestItem:
    def test_values_are_preserved(self):
        assert A.values == ("N03AG01", "438", 1)

    def test_empty_item_rejected(self):
        with pytest.raises(ValueError):
            Item(())

    def test_non_scalar_value_rejected(self):
        with pytest.raises(ValueError):
            Item((1.5,))

    def test_equality_is_tuple_equality(self):
        assert Item(("A", 1)) == Item(("A", 1))
        assert Item(("A", 1)) != Item(("A", 0))

    def test_sort_key_orders_ints_before_strings(self):
        # Mixed-type values must still have a total order.
        assert Item((0,)).sort_key() < Item(("0",)).sort_key()


class TestEventSequence:
    def test_events_sorted_by_day_then_item(self):
        seq = EventSequence(((5, B), (3, A), (5, A)))
        assert seq.events == ((3, A), (5, A), (5, B))

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            EventSequence(((-1, A),))

    def test_empty_sequence(self):
        seq = EventSequence()
        assert len(seq) == 0
        assert seq.items() == ()

    def test_construction_order_irrelevant(self):
        forward = EventSequence(((1, A), (2, B)))
        backward = EventSequence(((2, B), (1, A)))
        assert forward == backward


class TestPattern:
    def test_sort_key_orders_by_length_first(self):
        assert Pattern((B,)).sort_key() < Pattern((A, A)).sort_key()

    def test_sort_key_lexicographic_within_length(self):
        assert Pattern((A, A)).sort_key() < Pattern((A, B)).sort_key()


class TestFindEmbeddings:
    def test_single_item(self):
        seq = make_seq([A, B, A])
        assert find_embeddings(Pattern((A,)), seq) == {(1,), (3,)}

    def test_pair_enumerates_all(self):
        seq = make_seq([A, A, B])
        assert find_embeddings(Pattern((A, B)), seq) == {(1, 3), (2, 3)}

    def test_absent_pattern(self):
        seq = make_seq([A, A])
        assert find_embeddings(Pattern((B,)), seq) == frozenset()

    def test_empty_pattern_has_one_empty_embedding(self):
        seq = make_seq([A])
        assert find_embeddings(Pattern(), seq) == {()}
        assert find_embeddings(Pattern(), make_seq([])) == {()}

    def test_same_day_events_matched_by_position(self):
        # Two events on one day are distinct positions after canonical sort.
        seq = EventSequence(((7, A), (7, B)))
        assert find_embeddings(Pattern((A, B)), seq) == {(1, 2)}

    def test_long_pattern_needs_no_recursion(self):
        # Deeper than the interpreter's recursion limit; distinct items
        # leave exactly one embedding: every position, in order.
        items = [Item(("X", str(i), i % 2)) for i in range(5000)]
        seq = make_seq(items)
        only = {tuple(range(1, 5001))}
        assert find_embeddings(Pattern(tuple(items)), seq) == only


items_st = st.sampled_from([A, B, C])
sequences_st = st.lists(items_st, max_size=8)
patterns_st = st.lists(items_st, min_size=1, max_size=3)


@given(sequences_st, patterns_st)
def test_supports_agrees_with_find_embeddings(seq_items, pattern_items):
    seq = make_seq(seq_items)
    pattern = Pattern(tuple(pattern_items))
    assert supports(pattern, seq) == bool(find_embeddings(pattern, seq))


@given(sequences_st, patterns_st)
def test_embeddings_strictly_increasing_and_in_range(seq_items, pattern_items):
    seq = make_seq(seq_items)
    pattern = Pattern(tuple(pattern_items))
    for emb in find_embeddings(pattern, seq):
        assert len(emb) == len(pattern)
        assert all(1 <= pos <= len(seq) for pos in emb)
        assert all(a < b for a, b in zip(emb, emb[1:]))
        # Positions must actually witness the pattern.
        assert all(seq.events[pos - 1][1] == item for pos, item in zip(emb, pattern.items))


@settings(derandomize=True, max_examples=400)
@given(st.lists(items_st, max_size=9), st.lists(items_st, min_size=1, max_size=4))
def test_embeddings_are_the_matching_position_combinations(seq_items, pattern_items):
    # The definition, not the engine's walk: every increasing choice of
    # positions whose items are the pattern's, in ascending order.
    seq = make_seq(seq_items)
    pattern = Pattern(tuple(pattern_items))
    items = seq.items()
    expected = [
        tuple(k + 1 for k in chosen)
        for chosen in combinations(range(len(items)), len(pattern))
        if all(items[k] == item for k, item in zip(chosen, pattern.items))
    ]
    assert find_embeddings(pattern, seq) == frozenset(expected)
    assert list(iter_embeddings(pattern.items, items)) == expected


@given(sequences_st)
def test_every_sequence_supports_the_empty_pattern(seq_items):
    assert supports(Pattern(), make_seq(seq_items))

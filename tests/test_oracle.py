"""Reference oracle: exhaustive enumeration, guard arithmetic."""

import pytest

from pathmine.builder import CaseDatabase, CasePair
from pathmine.errors import TooLarge
from pathmine.model import Item, Pattern
from pathmine.oracle import _candidate_count, oracle_mine

from conftest import make_seq, make_task

A = Item(("A1", "10", 0))


class TestGuard:
    def test_candidate_count_is_geometric_series(self):
        assert _candidate_count(4, 6) == 5460
        assert _candidate_count(10, 7) == 11_111_110
        assert _candidate_count(1, 2) == 2

    def test_alphabet_four_length_six_permitted(self):
        items = [Item(("A", str(i), i % 2)) for i in range(4)]
        db = CaseDatabase((CasePair("p", make_seq(items)),))
        oracle_mine(make_task(), db, max_len=6)  # must not raise

    def test_too_large_refused(self):
        items = [Item(("A", str(i), i % 2)) for i in range(10)]
        db = CaseDatabase((CasePair("p", make_seq(items)),))
        with pytest.raises(TooLarge):
            oracle_mine(make_task(), db, max_len=7)


class TestEnumeration:
    def test_single_item_alphabet_by_hand(self):
        db = CaseDatabase((CasePair("p", make_seq([A, A])),))
        found = oracle_mine(make_task(), db, max_len=2)
        assert [pt.pattern.items for pt in found] == [(A,), (A, A)]
        assert found[0].embeddings["p"] == {(1,), (2,)}
        assert found[1].embeddings["p"] == {(1, 2)}

    def test_respects_min_support(self):
        db = CaseDatabase(
            (
                CasePair("p1", make_seq([A])),
                CasePair("p2", make_seq([])),
            )
        )
        assert oracle_mine(make_task(f_min=2), db, max_len=2) == ()

    def test_canonical_order(self):
        items = [Item(("A", str(i), 0)) for i in range(3)]
        db = CaseDatabase((CasePair("p", make_seq(items * 2)),))
        found = oracle_mine(make_task(), db, max_len=3)
        keys = [pt.pattern.sort_key() for pt in found]
        assert keys == sorted(keys)

    def test_empty_database(self):
        assert oracle_mine(make_task(), CaseDatabase(()), max_len=3) == ()

"""Knowledge base: code table, reification, taxonomy closure."""

import pytest

from pathmine.builder import CodeTable
from pathmine.errors import CycleError, DuplicateCode, UnknownCode
from pathmine.knowledge import CodeAttributes, DeliveryAttributes, KnowledgeBase, Taxonomy
from pathmine.model import Item

ROWS = [
    ("C1", "N03AG01", "438", 1),
    ("C2", "N03AX14", "1023", 0),
    ("C3", "N02BE01", "900", 0),
]


def table() -> CodeAttributes:
    return CodeAttributes.from_rows(ROWS)


class TestCodeAttributes:
    def test_lookup(self):
        assert table().attributes("C1") == DeliveryAttributes("N03AG01", "438", 1)

    def test_unknown_code_raises(self):
        with pytest.raises(UnknownCode):
            table().attributes("C9")

    def test_case_insensitive_codes(self):
        kb = CodeAttributes.from_rows([("c1", "n03ax09", "77", 1)])
        assert kb.attributes("C1").atc == "N03AX09"

    def test_identical_duplicate_rows_tolerated(self):
        kb = CodeAttributes.from_rows(ROWS + [ROWS[0]])
        assert sorted(kb.codes()) == ["C1", "C2", "C3"]

    def test_conflicting_duplicate_raises(self):
        with pytest.raises(DuplicateCode):
            CodeAttributes.from_rows(ROWS + [("C1", "N03AG01", "439", 1)])

    def test_bad_generic_flag_rejected(self):
        with pytest.raises(ValueError):
            CodeAttributes.from_rows([("C1", "A", "1", 2)])

    def test_therapeutic_classes(self):
        assert table().therapeutic_classes() == {"N03AG01", "N03AX14", "N02BE01"}


class TestClassifyDelivery:
    """Reifying one delivery code through the builder's code table."""

    @staticmethod
    def classify(cip, class_filter=None):
        kb = KnowledgeBase(table(), Taxonomy())
        codes = CodeTable(kb, class_filter, ("atc", "group", "generic"))
        iid = codes[cip]
        return None if iid is None else codes.items[iid]

    def test_reifies_full_triple(self):
        item = self.classify("C1", frozenset({"N03AG01"}))
        assert item == Item(("N03AG01", "438", 1))

    def test_brand_name_flag(self):
        item = self.classify("C2", frozenset({"N03AX14"}))
        assert item == Item(("N03AX14", "1023", 0))

    def test_filtered_class_returns_none(self):
        assert self.classify("C3", frozenset({"N03AG01", "N03AX14"})) is None

    def test_no_filter_accepts_everything(self):
        assert self.classify("C3") == Item(("N02BE01", "900", 0))

    def test_unknown_code_raises_even_with_filter(self):
        with pytest.raises(UnknownCode):
            self.classify("C9", frozenset({"N03AG01"}))


class TestTaxonomy:
    def test_one_step_edge_plus_reflexivity(self):
        tax = Taxonomy.from_edges([("G403", "G40")])
        assert tax.ancestors("G403") == {"G403", "G40"}

    def test_isolated_code_is_its_own_ancestor(self):
        assert Taxonomy.from_edges([]).ancestors("G40") == {"G40"}

    def test_transitive_chain(self):
        tax = Taxonomy.from_edges([("a", "b"), ("b", "c")])
        assert tax.ancestors("a") == {"A", "B", "C"}

    def test_multiple_parents(self):
        tax = Taxonomy.from_edges([("x", "p1"), ("x", "p2")])
        assert tax.ancestors("x") == {"X", "P1", "P2"}

    def test_ancestors_monotone_under_edge_addition(self):
        small = Taxonomy.from_edges([("a", "b")])
        grown = Taxonomy.from_edges([("a", "b"), ("b", "c")])
        assert small.ancestors("a") <= grown.ancestors("a")

    def test_self_loop_detected(self):
        with pytest.raises(CycleError) as err:
            Taxonomy.from_edges([("a", "a")])
        assert str(err.value) == "taxonomy cycle: A -> A"

    def test_long_cycle_detected_and_reported(self):
        with pytest.raises(CycleError) as err:
            Taxonomy.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        # The diagnostic names one full cycle, child before parent.
        assert str(err.value) == "taxonomy cycle: A -> B -> C -> A"

    def test_diamond_is_not_a_cycle(self):
        tax = Taxonomy.from_edges([("d", "l"), ("d", "r"), ("l", "t"), ("r", "t")])
        assert tax.ancestors("d") == {"D", "L", "R", "T"}

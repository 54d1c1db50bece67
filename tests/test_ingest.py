"""CSV loaders: field mapping, validation, round trips."""

import csv

import pytest

from pathmine.errors import CycleError, DuplicateCode, NegativeDay, ParseError
from pathmine.ingest import (
    DeliveryFact,
    DiseaseFact,
    RawDatabase,
    load_deliveries,
    load_diseases,
    load_kb,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadDeliveries:
    def test_row_maps_to_fact(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,37,3400935955838,1\n")
        assert load_deliveries(path) == (DeliveryFact("p1", 37, "3400935955838", 1),)

    def test_negative_day(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,-3,X,1\n")
        with pytest.raises(NegativeDay) as err:
            load_deliveries(path)
        assert err.value.line == 2

    def test_header_only_gives_empty(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\n")
        assert load_deliveries(path) == ()

    def test_missing_header(self, tmp_path):
        with pytest.raises(ParseError):
            load_deliveries(write(tmp_path / "d.csv", ""))

    def test_wrong_header(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,cip,day,qty\np1,X,1,1\n")
        with pytest.raises(ParseError):
            load_deliveries(path)

    def test_wrong_column_count(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,1,X\n")
        with pytest.raises(ParseError) as err:
            load_deliveries(path)
        assert err.value.line == 2

    def test_non_integer_day(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,soon,X,1\n")
        with pytest.raises(ParseError):
            load_deliveries(path)

    def test_zero_quantity_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,1,X,0\n")
        with pytest.raises(ParseError):
            load_deliveries(path)

    def test_sorted_by_patient_then_day(self, tmp_path):
        # The loader keeps file order; RawDatabase sorts, stably.
        path = write(
            tmp_path / "d.csv",
            "patient,day,cip,qty\np2,5,X,1\np1,9,X,1\np1,2,Y,1\np1,2,X,1\n",
        )
        facts = load_deliveries(path)
        assert [(f.patient, f.day) for f in facts] == [("p2", 5), ("p1", 9), ("p1", 2), ("p1", 2)]
        raw = RawDatabase(facts, ())
        assert [(f.patient, f.day, f.cip) for f in raw.deliveries] == [
            ("p1", 2, "Y"), ("p1", 2, "X"), ("p1", 9, "X"), ("p2", 5, "X")
        ]

    def test_duplicate_rows_kept(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,1,X,1\np1,1,X,1\n")
        assert len(load_deliveries(path)) == 2


class TestLoadDiseases:
    def test_sorted_by_patient_then_day(self, tmp_path):
        # The loader keeps file order; RawDatabase sorts, stably.
        path = write(tmp_path / "i.csv", "patient,day,icd\np2,5,G40\np1,9,G40\np1,2,G41\np1,2,G40\n")
        raw = RawDatabase((), load_diseases(path))
        assert [(f.patient, f.day, f.icd) for f in raw.diseases] == [
            ("p1", 2, "G41"), ("p1", 2, "G40"), ("p1", 9, "G40"), ("p2", 5, "G40")
        ]

    def test_row_maps_to_fact(self, tmp_path):
        path = write(tmp_path / "i.csv", "patient,day,icd\np1,120,G403\n")
        assert load_diseases(path) == (DiseaseFact("p1", 120, "G403"),)

    def test_codes_uppercased(self, tmp_path):
        path = write(tmp_path / "i.csv", "patient,day,icd\np1,120,g403\n")
        assert load_diseases(path)[0].icd == "G403"

    def test_duplicate_rows_are_distinct_facts(self, tmp_path):
        path = write(tmp_path / "i.csv", "patient,day,icd\np1,120,G403\np1,120,G403\n")
        assert len(load_diseases(path)) == 2

    def test_empty_patient_rejected(self, tmp_path):
        path = write(tmp_path / "i.csv", "patient,day,icd\n,120,G403\n")
        with pytest.raises(ParseError):
            load_diseases(path)


class TestLoadKb:
    def kb_file(self, tmp_path, body, extra_header=""):
        return write(tmp_path / "kb.csv", f"cip,atc,group,generic{extra_header}\n{body}")

    def tax_file(self, tmp_path, body="G403,G40\n"):
        return write(tmp_path / "tax.csv", f"child,parent\n{body}")

    def test_attribute_row(self, tmp_path):
        kb = load_kb(
            self.kb_file(tmp_path, "C1,N03AG01,438,1\n"), self.tax_file(tmp_path)
        )
        assert kb.attributes.attributes("C1") == ("N03AG01", "438", 1)

    def test_taxonomy_edge(self, tmp_path):
        kb = load_kb(self.kb_file(tmp_path, "C1,A,1,0\n"), self.tax_file(tmp_path))
        assert kb.taxonomy.ancestors("G403") == {"G403", "G40"}

    def test_extra_columns_accepted_and_ignored(self, tmp_path):
        kb = load_kb(
            self.kb_file(tmp_path, "C1,A,1,0,50mg,box\n", extra_header=",strength,form"),
            self.tax_file(tmp_path),
        )
        assert kb.attributes.attributes("C1") == ("A", "1", 0)

    def test_rows_differing_only_in_extra_columns_are_one_code(self, tmp_path):
        kb = load_kb(
            self.kb_file(
                tmp_path, "C1,A,1,0,50mg\nC1,A,1,0,100mg\n", extra_header=",strength"
            ),
            self.tax_file(tmp_path),
        )
        assert len(kb.attributes) == 1
        assert kb.attributes.attributes("C1") == ("A", "1", 0)

    def test_conflicting_codes_raise(self, tmp_path):
        with pytest.raises(DuplicateCode):
            load_kb(
                self.kb_file(tmp_path, "C1,A,1,0\nC1,A,2,0\n"), self.tax_file(tmp_path)
            )

    def test_taxonomy_cycle_raises(self, tmp_path):
        with pytest.raises(CycleError):
            load_kb(
                self.kb_file(tmp_path, "C1,A,1,0\n"),
                self.tax_file(tmp_path, "a,b\nb,a\n"),
            )

    def test_generic_flag_validated(self, tmp_path):
        with pytest.raises(ParseError):
            load_kb(self.kb_file(tmp_path, "C1,A,1,3\n"), self.tax_file(tmp_path))


class TestRawDatabase:
    def test_sorts_and_keeps_duplicates(self):
        raw = RawDatabase(
            deliveries=(
                DeliveryFact("p2", 1, "X", 1),
                DeliveryFact("p1", 8, "X", 1),
                DeliveryFact("p1", 8, "X", 1),
            )
        )
        assert [f.patient for f in raw.deliveries] == ["p1", "p1", "p2"]
        assert len(raw.deliveries) == 3

    def test_patients_union(self):
        raw = RawDatabase(
            deliveries=(DeliveryFact("p1", 1, "X", 1),),
            diseases=(DiseaseFact("p2", 1, "G40"),),
        )
        assert raw.patients() == {"p1", "p2"}


def test_round_trip_preserves_fact_multisets(tmp_path):
    # Serialize loaded facts back to CSV and reload: identical multisets.
    src = write(
        tmp_path / "d.csv",
        "patient,day,cip,qty\np1,5,A,1\np1,5,A,1\np2,3,B,2\n",
    )
    first = load_deliveries(src)
    back = tmp_path / "again.csv"
    with open(back, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("patient", "day", "cip", "qty"))
        writer.writerows(first)
    assert load_deliveries(str(back)) == first

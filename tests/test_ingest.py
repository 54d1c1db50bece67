"""CSV loaders: field mapping, validation, round trips."""

import csv
import gc
import io
import tracemalloc
from functools import partial
from itertools import repeat
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pathmine import ingest
from pathmine.cli import main
from pathmine.errors import CycleError, DuplicateCode, NegativeDay, ParseError
from pathmine.ingest import FactColumns, RawDatabase, load_deliveries, load_diseases, load_kb
from pathmine.knowledge import CodeAttributes
from pathmine.synth import CohortConfig, PlantSpec, generate_cohort, write_cohort

from conftest import STUDY_QUERY


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadDeliveries:
    def test_row_maps_to_fact(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,37,3400935955838,1\n")
        facts = load_deliveries(path)
        assert facts == FactColumns(["p1"], [37], ["3400935955838"])
        assert len(facts) == 1 and type(facts.patients) is list

    def test_negative_day(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,-3,X,1\n")
        with pytest.raises(NegativeDay) as err:
            load_deliveries(path)
        assert err.value.line == 2

    def test_header_only_gives_empty(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\n")
        assert load_deliveries(path) == FactColumns()

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
        assert list(zip(facts.patients, facts.days)) == [("p2", 5), ("p1", 9), ("p1", 2), ("p1", 2)]
        raw = RawDatabase(facts, ())
        assert list(raw.delivery_groups) == ["p1", "p2"]
        assert raw.delivery_groups == {"p1": ((2, 2, 9), ("Y", "X", "X")), "p2": ((5,), ("X",))}

    def test_cells_checked_left_to_right(self, tmp_path):
        # The empty patient is reported, not the zero quantity to its right.
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,1,X,1\n,2,X,0\n")
        with pytest.raises(ParseError, match=":3: patient must not be empty$") as err:
            load_deliveries(path)
        assert (type(err.value), err.value.path, err.value.line) == (ParseError, path, 3)

    def test_duplicate_rows_kept(self, tmp_path):
        path = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,1,X,1\np1,1,X,1\n")
        assert len(load_deliveries(path)) == 2

    def test_row_validator_shares_equal_cells(self, tmp_path):
        # Quoted cells send the file to the row validator.
        path = write(tmp_path / "d.csv", 'patient,day,cip,qty\n"p1","5","x1","1"\np1,5,x1,2\n')
        facts = load_deliveries(path)
        assert facts == FactColumns(["p1", "p1"], [5, 5], ["X1", "X1"])
        assert facts.patients[0] is facts.patients[1] and facts.codes[0] is facts.codes[1]


class TestIntegerCells:
    """An integer cell is ASCII digits, on both fact readers.

    int() alone would read `1_0` as 10 and Arabic-Indic digits as numbers.
    """

    @pytest.mark.parametrize("quote", ["", '"'], ids=["bulk", "row validator"])
    @pytest.mark.parametrize(
        "header, column, cell",
        [
            ("patient,day,cip,qty", "day", "1_0"),
            ("patient,day,cip,qty", "qty", "\u0663"),
            ("patient,day,icd", "day", "\u0669\u0660"),
        ],
    )
    def test_only_ascii_digits(self, tmp_path, quote, header, column, cell):
        names = header.split(",")
        good = {"patient": "p1", "day": "1", "cip": "X", "icd": "G40", "qty": "1"}
        bad = dict(good, **{column: cell})
        rows = [",".join(quote + row[name] + quote for name in names) for row in (good, bad)]
        path = write(tmp_path / "f.csv", "\n".join([header, *rows]) + "\n")
        load = load_deliveries if "cip" in names else load_diseases
        with pytest.raises(ParseError) as err:
            load(path)
        assert str(err.value).endswith(f":3: {column} must be an integer, got {cell!r}")


class TestLoadDiseases:
    def test_sorted_by_patient_then_day(self, tmp_path):
        # The loader keeps file order; RawDatabase sorts, stably.
        path = write(tmp_path / "i.csv", "patient,day,icd\np2,5,G40\np1,9,G40\np1,2,G41\np1,2,G40\n")
        raw = RawDatabase((), load_diseases(path))
        assert list(raw.disease_groups) == ["p1", "p2"]
        assert raw.disease_groups == {
            "p1": ((2, 2, 9), ("G41", "G40", "G40")), "p2": ((5,), ("G40",))
        }

    def test_row_maps_to_fact(self, tmp_path):
        path = write(tmp_path / "i.csv", "patient,day,icd\np1,120,G403\n")
        facts = load_diseases(path)
        assert facts == FactColumns(["p1"], [120], ["G403"])
        assert len(facts) == 1 and type(facts.patients) is list

    def test_codes_uppercased(self, tmp_path):
        path = write(tmp_path / "i.csv", "patient,day,icd\np1,120,g403\n")
        assert load_diseases(path).codes == ["G403"]

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
        assert list(kb.attributes.codes()) == ["C1"]
        assert kb.attributes.attributes("C1") == ("A", "1", 0)

    def test_padded_lower_case_codes_load_as_the_clean_file(self, tmp_path):
        clean = load_kb(self.kb_file(tmp_path, "C1,N03AG01,438,1\n"), self.tax_file(tmp_path))
        padded = load_kb(
            write(tmp_path / "padded.csv", "cip,atc,group,generic\n c1 , n03ag01 ,438,1\n"),
            self.tax_file(tmp_path),
        )
        assert padded.attributes == clean.attributes

    def test_a_group_in_lower_case_is_upper_cased_as_every_code(self, tmp_path):
        # The query upper-cases the group it compares, so a lower-case
        # group kept as written could never match.
        kb = load_kb(self.kb_file(tmp_path, "C1,N03AX14,ab,0\n"), self.tax_file(tmp_path))
        assert kb.attributes.attributes("C1") == ("N03AX14", "AB", 0)
        rows = CodeAttributes.from_rows([("C1", "N03AX14", " ab ", 0)])
        assert rows.attributes("C1") == ("N03AX14", "AB", 0)

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

    @pytest.mark.parametrize(
        "row, message",
        [
            (",N03AG01,438,x", "cip must not be empty"),
            ("C1,,438,x", "atc must not be empty"),
            ("C1,A, ,2", "group must not be empty"),
            ("C1,A,1,x", "generic must be an integer, got 'x'"),
            ("C1,A,1,2", "generic must be 0 or 1, got 2"),
            ("C1,A,1,-1", "generic must be 0 or 1, got -1"),
        ],
    )
    def test_attribute_row_reports_its_leftmost_bad_cell(self, tmp_path, row, message):
        path = self.kb_file(tmp_path, f"C0,A,1,0\n{row}\n")
        with pytest.raises(ParseError) as err:
            load_kb(path, self.tax_file(tmp_path))
        assert str(err.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize(
        "row, message",
        [
            (",", "child must not be empty"),
            (" ,G40", "child must not be empty"),
            ("G403,", "parent must not be empty"),
        ],
    )
    def test_taxonomy_row_reports_its_leftmost_bad_cell(self, tmp_path, row, message):
        path = self.tax_file(tmp_path, f"G410,G41\n{row}\n")
        with pytest.raises(ParseError) as err:
            load_kb(self.kb_file(tmp_path, "C1,A,1,0\n"), path)
        assert str(err.value) == f"{path}:3: {message}"


class TestRawDatabase:
    def test_sorts_and_keeps_duplicates(self):
        raw = RawDatabase(
            deliveries=(
                ("p2", 1, "X", 1),
                ("p1", 8, "X", 1),
                ("p1", 8, "X", 1),
            )
        )
        assert raw.delivery_groups == {"p1": ((8, 8), ("X", "X")), "p2": ((1,), ("X",))}
        assert list(raw.delivery_groups) == ["p1", "p2"]
        assert raw.delivery_count == 3

    def test_first_bad_fact_in_sorted_order_raises(self):
        with pytest.raises(ValueError, match="quantity must be >= 1, got 0"):
            RawDatabase(deliveries=(("p2", -1, "X", 1), ("p1", 3, "X", 0)))
        with pytest.raises(NegativeDay, match="delivery on negative day -1"):
            RawDatabase(deliveries=(("p1", 3, "X", 0), ("p1", -1, "X", 1)))
        with pytest.raises(NegativeDay, match="diagnosis on negative day -4"):
            RawDatabase(diseases=(("p2", -9, "G40"), ("p1", -4, "G40")))
        # One patient's bad days in unsorted input order: the earliest is reported.
        with pytest.raises(NegativeDay, match="delivery on negative day -7"):
            RawDatabase(
                deliveries=(
                    ("p1", -3, "X", 1), ("p1", 4, "X", 0), ("p1", -7, "Y", 1), ("p1", -5, "X", 1)
                )
            )
        with pytest.raises(NegativeDay, match="diagnosis on negative day -7"):
            RawDatabase(
                diseases=(
                    ("p1", -3, "G40"), ("p1", 2, "I10"), ("p1", -7, "G41"), ("p1", -5, "G40")
                )
            )

    @pytest.mark.parametrize(
        "deliveries, diseases, message",
        [
            # A delivery row without its quantity.
            (
                [("p1", 1, "X")],
                [],
                "patient 'p1' has a delivery row without all of (patient, day, cip, qty)",
            ),
            # One short row among full ones, which zip alone would truncate to.
            (
                [("p1", 1, "X", 1), ("p2", 1, "X", 1), ("p2", 2, "X")],
                [],
                "patient 'p2' has a delivery row without all of (patient, day, cip, qty)",
            ),
            # A diagnosis row without its code.
            (
                [],
                [("p1", 1, "G40"), ("p1", 2)],
                "patient 'p1' has a diagnosis row without all of (patient, day, icd)",
            ),
            # A row without a day, which the day sort cannot key.
            (
                [],
                [("p1", 1, "G40"), ("p1",)],
                "patient 'p1' has a diagnosis row without all of (patient, day, icd)",
            ),
            # Rows without a patient, which the patient sort cannot key.
            ([()], (), "a delivery row without all of (patient, day, cip, qty)"),
            ((), [()], "a diagnosis row without all of (patient, day, icd)"),
        ],
        ids=["no-qty", "one-short-row", "no-icd", "no-day", "empty-delivery", "empty-diagnosis"],
    )
    def test_a_row_shorter_than_its_kind_is_refused(self, deliveries, diseases, message):
        with pytest.raises(ValueError) as info:
            RawDatabase(deliveries, diseases)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_extra_fields_are_ignored(self):
        raw = RawDatabase([("p1", 1, "X", 1, "note")], [("p1", 0, "G40", "note")])
        assert raw.delivery_groups == {"p1": ((1,), ("X",))}
        assert raw.disease_groups == {"p1": ((0,), ("G40",))}

    def test_patients_union(self):
        raw = RawDatabase(
            deliveries=(("p1", 1, "X", 1),),
            diseases=(("p2", 1, "G40"),),
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
        # Quantities are checked but not kept, so each row is written with 1.
        writer.writerows(zip(first.patients, first.days, first.codes, repeat(1)))
    assert load_deliveries(str(back)) == first


VALID_FILES = {
    "deliveries": "patient,day,cip,qty\np1,1,X,1\np1,2,Y,1\n",
    "diseases": "patient,day,icd\np1,1,G40\np1,2,G41\n",
    "attributes": "cip,atc,group,generic\nX,A,1,0\nY,B,2,1\n",
    "taxonomy": "child,parent\nG403,G40\nG410,G41\n",
}


def load_one(kind, paths):
    if kind == "deliveries":
        return load_deliveries(paths[kind])
    if kind == "diseases":
        return load_diseases(paths[kind])
    return load_kb(paths["attributes"], paths["taxonomy"])


class TestUnreadableInput:
    """Bytes that are not UTF-8 text or not CSV are a ParseError with path and line."""

    def files_with_bad_third_line(self, tmp_path, kind, bad_line):
        paths = {name: write(tmp_path / f"{name}.csv", text) for name, text in VALID_FILES.items()}
        lines = VALID_FILES[kind].encode("utf-8").splitlines(keepends=True)
        lines[2] = bad_line
        (tmp_path / f"{kind}.csv").write_bytes(b"".join(lines))
        return paths

    @pytest.mark.parametrize("kind", VALID_FILES)
    def test_undecodable_byte(self, tmp_path, kind):
        paths = self.files_with_bad_third_line(tmp_path, kind, b"Caf\xe9,1,1,1\n")
        with pytest.raises(ParseError) as err:
            load_one(kind, paths)
        assert (err.value.path, err.value.line) == (paths[kind], 3)
        assert "0xe9" in str(err.value)

    @pytest.mark.parametrize("kind", VALID_FILES)
    def test_field_over_the_csv_limit(self, tmp_path, kind):
        # A valid row but for the length of its first cell.
        line = VALID_FILES[kind].encode("utf-8").splitlines(keepends=True)[2]
        paths = self.files_with_bad_third_line(tmp_path, kind, b"x" * 200_000 + line)
        with pytest.raises(ParseError) as err:
            load_one(kind, paths)
        assert (err.value.path, err.value.line) == (paths[kind], 3)
        assert "field larger than field limit" in str(err.value)


#: Per column kind, cells the row validator accepts and cells it rejects
#: or normalises (padding, lower case, quotes); a NUL is a csv error on
#: some Python versions and a plain character on others.
CELLS = {
    "patient": (["p1", "p2", "10"], [" p1 ", "", "\tp2", '"p1"', '"p,1"', '"p\n1"', "p\x001"]),
    "day": (["0", "7", "31", "365"], ["-3", "soon", "", " 12 ", "+4", "1.5", '"7"']),
    "code": (["C1", "G40", "X9"], ["c1", " g40 ", "", '"C1"', "C\x00"]),
    "qty": (["1", "2", "30"], ["0", "-1", "x", " 3", '"2"']),
}


@st.composite
def fact_file_text(draw, header, columns):
    """A whole fact file; about half its rows carry one fault.

    A fault is an odd cell, a wrong width or a blank line (so a file may
    end in one). Line ends are LF, CRLF or a lone CR, drawn per line;
    the last line may have none. The header may be padded, and the file
    may start with a byte-order mark.
    """
    names = header.split(",")
    if draw(st.booleans()):
        names = [f" {name} " for name in names]
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 7))):
        fault = draw(st.sampled_from([None] * 5 + ["width", "blank", *columns]))
        cells = [
            draw(st.sampled_from(CELLS[column][column == fault])) for column in columns
        ]
        if fault == "width":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["extra"]
        lines.append("" if fault == "blank" else ",".join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "".join(map(str.__add__, lines, ends))


def columns_of(rows):
    """The patient, day and code columns of fact rows."""
    return FactColumns(*([row[k] for row in rows] for k in range(3)))


def validated_columns(header):
    """A loader that reads a whole fact file with the row validator alone."""

    def load(path):
        with ingest._opened(path) as handle:
            return columns_of(list(ingest._checked_rows(path, handle, header)))

    return load


class TestBulkAgreesWithRowValidator:
    """The bulk loaders return what the row validator returns, or raise the same error."""

    @staticmethod
    def outcome(load, path):
        try:
            facts = load(path)
        except ParseError as exc:
            return type(exc), exc.line, str(exc)
        return facts.patients, facts.days, facts.codes

    def check(self, tmp_path_factory, text, block, bulk, by_row):
        path = tmp_path_factory.mktemp("agree") / "facts.csv"
        path.write_bytes(text.encode("utf-8"))
        # Blocks of a few characters, so that rows straddle blocks and
        # many rows are longer than one block.
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            assert self.outcome(bulk, str(path)) == self.outcome(by_row, str(path))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        text=fact_file_text("patient,day,cip,qty", ("patient", "day", "code", "qty")),
        block=st.integers(1, 40),
    )
    def test_deliveries(self, tmp_path_factory, text, block):
        self.check(
            tmp_path_factory, text, block, load_deliveries,
            validated_columns(("patient", "day", "cip", "qty")),
        )

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        text=fact_file_text("patient,day,icd", ("patient", "day", "code")),
        block=st.integers(1, 40),
    )
    # A long row then a short one: the cell count is whole rows, but the
    # second row's cells are shifted into the wrong columns.
    @example(text="patient,day,icd\np1,1,G40,extra\n10,7\n", block=64)
    def test_diseases(self, tmp_path_factory, text, block):
        self.check(
            tmp_path_factory, text, block, load_diseases,
            validated_columns(("patient", "day", "icd")),
        )


class TestBulkPath:
    """Plain CSV never reaches the row validator."""

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_plain_files_load_without_the_row_validator(self, tmp_path, end, bom):
        deliveries = tmp_path / "d.csv"
        deliveries.write_bytes(
            (bom + end.join([
                " patient ,day, cip,qty ", "p1,1000,x1,1", " p1 ,1000, X1 , 2", "p2,7,c2,1"
            ]) + end).encode("utf-8")
        )
        diseases = tmp_path / "i.csv"
        diseases.write_bytes(
            (bom + end.join(["patient, day ,icd", "p1,1000,g40", "p2, 3,i10 "])).encode("utf-8")
        )
        with mock.patch.object(ingest, "_checked_rows", side_effect=AssertionError("slow path")):
            facts = load_deliveries(str(deliveries))
            assert facts == FactColumns(["p1", "p1", "p2"], [1000, 1000, 7], ["X1", "X1", "C2"])
            assert load_diseases(str(diseases)) == FactColumns(
                ["p1", "p2"], [1000, 3], ["G40", "I10"]
            )
        # Equal texts share one object: the day's int as well as the strings.
        assert facts.days[0] is facts.days[1]
        assert facts.patients[0] is facts.patients[1] and facts.codes[0] is facts.codes[1]

    def test_a_line_longer_than_any_valid_row_is_refused_before_its_end(self):
        # Under a field limit of 5, a diseases row fills at most 3 * (5 + 1) characters.
        text = "patient,day,icd\np1,1,G40\n" + "x" * 50
        served = []

        class Handle(io.StringIO):
            def read(self, size=-1):
                served.append(super().read(size))
                return served[-1]

            def readline(self, size=-1):
                served.append(super().readline(size))
                return served[-1]

        facts = FactColumns()
        with mock.patch.object(ingest, "_BLOCK_CHARS", 4), mock.patch.object(
            ingest.csv, "field_size_limit", return_value=5
        ):
            untaken = ingest._bulk_read(Handle(text), ("patient", "day", "icd"), facts, {})
        # A block is completed to its line's end, and the long line is read
        # only up to the bound; the row validator takes it from line 3.
        assert served[1:] == ["p1,1", ",G40\n", "xxxx", "x" * 18]
        assert untaken == (2, "x" * 22)
        assert facts == FactColumns(["p1"], [1], ["G40"])


def reference_groups(rows):
    """Day and code columns per patient, read off one stable (patient, day) sort."""
    groups = {}
    for patient, day, code, *_ in sorted(rows, key=itemgetter(0, 1)):
        days, codes = groups.setdefault(patient, ([], []))
        days.append(day)
        codes.append(code)
    return [(patient, (tuple(days), tuple(codes))) for patient, (days, codes) in groups.items()]


# Few patients, days and codes, so that most rows tie on (patient, day) with another.
TIED_ROWS = st.lists(
    st.tuples(st.sampled_from(["p1", "p2", "p3"]), st.integers(0, 3), st.sampled_from("ABCD")),
    max_size=40,
)


class TestGroupedStore:
    @settings(derandomize=True, max_examples=150)
    @given(data=st.data(), rows=TIED_ROWS)
    def test_groups_equal_one_stable_sort_by_patient_and_day(self, data, rows):
        # Tied rows differ in code, so their input order shows in the groups.
        deliveries = data.draw(st.permutations([(*row, 1) for row in rows]))
        diseases = data.draw(st.permutations(rows))
        raw = RawDatabase(deliveries, diseases)
        assert list(raw.delivery_groups.items()) == reference_groups(deliveries)
        assert list(raw.disease_groups.items()) == reference_groups(diseases)

    def test_groups_hold_day_sorted_columns(self):
        raw = RawDatabase(
            deliveries=(
                ("p2", 4, "Z", 1),
                ("p1", 9, "X", 2),
                ("p1", 3, "Y", 1),
                ("p1", 3, "X", 1),
            ),
            diseases=(("p3", 8, "G40"), ("p3", 2, "I10")),
        )
        assert list(raw.delivery_groups) == ["p1", "p2"]
        assert raw.delivery_groups["p1"] == ((3, 3, 9), ("Y", "X", "X"))
        assert raw.disease_groups == {"p3": ((2, 8), ("I10", "G40"))}
        assert (raw.delivery_count, raw.disease_count) == (4, 2)

    def test_load_sequence_reports_the_first_bad_row(self, tmp_path):
        deliveries = write(tmp_path / "d.csv", "patient,day,cip,qty\np1,2,X,1\np1,-2,X,1\n")
        diseases = write(tmp_path / "i.csv", "patient,day,icd\np1,2,G40\n")
        with pytest.raises(NegativeDay) as err:
            RawDatabase(load_deliveries(deliveries), load_diseases(diseases))
        assert (err.value.path, err.value.line) == (deliveries, 3)


@pytest.fixture(scope="module")
def small_study(tmp_path_factory):
    """A 40-patient cohort with a plant of 6, its query, and the CLI's bytes on its files."""
    plant = PlantSpec.parse("N03AG01,438,1|N03AG01,438,1|N03AX14,1023,0@6")
    cohort = generate_cohort(CohortConfig(patients=40, seed=4, plant=plant))
    directory = tmp_path_factory.mktemp("in-file-order")
    paths = write_cohort(cohort, str(directory))
    query = directory / "study.pmq"
    query.write_text(STUDY_QUERY.replace("min_support 20", "min_support 6"), encoding="utf-8")
    out = directory / "patterns.jsonl"
    assert main(mine_args(paths, paths["deliveries"], paths["diseases"], query, out)) == 0
    assert out.read_bytes()
    return cohort, paths, query, out.read_bytes()


def mine_args(paths, deliveries, diseases, query, out):
    return [
        "mine", "--query", str(query), "--deliveries", str(deliveries),
        "--diseases", str(diseases), "--kb", paths["kb"], "--taxonomy", paths["taxonomy"],
        "--out", str(out),
    ]


class TestRowOrder:
    """Fact files in any row order group as one stable sort and mine to the same bytes.

    No benchmark cohort is out of patient order, so this is what runs the
    sort branch of the grouping on loaded files.
    """

    def check(self, small_study, tmp_path_factory, deliveries, diseases, block):
        _, paths, query, expected = small_study
        directory = tmp_path_factory.mktemp("reordered")
        files = {
            "deliveries": (ingest._DELIVERY_HEADER, deliveries),
            "diseases": (ingest._DISEASE_HEADER, diseases),
        }
        for name, (header, rows) in files.items():
            with open(directory / f"{name}.csv", "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
        # A small block makes patient runs straddle blocks.
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            raw = RawDatabase(
                load_deliveries(str(directory / "deliveries.csv")),
                load_diseases(str(directory / "diseases.csv")),
            )
            assert list(raw.delivery_groups.items()) == reference_groups(deliveries)
            assert list(raw.disease_groups.items()) == reference_groups(diseases)
            out = directory / "patterns.jsonl"
            args = mine_args(
                paths, directory / "deliveries.csv", directory / "diseases.csv", query, out
            )
            assert main(args) == 0
        assert out.read_bytes() == expected

    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(data=st.data(), block=st.sampled_from([ingest._BLOCK_CHARS, 64]))
    def test_shuffled(self, small_study, tmp_path_factory, data, block):
        cohort = small_study[0]
        deliveries = data.draw(st.permutations(cohort.deliveries))
        diseases = data.draw(st.permutations(cohort.diseases))
        self.check(small_study, tmp_path_factory, deliveries, diseases, block)

    @pytest.mark.parametrize("block", [ingest._BLOCK_CHARS, 64])
    @pytest.mark.parametrize("order", ["by-day", "reversed", "runs-reversed"])
    def test_sorted_by_day_or_reversed(self, small_study, tmp_path_factory, order, block):
        # "runs-reversed" keeps patients ascending with each one's days
        # descending, so runs are sliced off and then sorted by day.
        cohort = small_study[0]
        reorder = {
            "by-day": partial(sorted, key=itemgetter(1)),
            "reversed": lambda rows: rows[::-1],
            "runs-reversed": lambda rows: sorted(rows[::-1], key=itemgetter(0)),
        }[order]
        deliveries, diseases = reorder(cohort.deliveries), reorder(cohort.diseases)
        self.check(small_study, tmp_path_factory, deliveries, diseases, block)


def test_loaded_facts_cost_at_most_110_bytes_per_delivery_row(tmp_path):
    # Row tuples cost 164 bytes per row here; columns and the groups about 85.
    paths = write_cohort(generate_cohort(CohortConfig(patients=2000, seed=8)), str(tmp_path))
    gc.collect()
    tracemalloc.start()
    try:
        raw = RawDatabase(load_deliveries(paths["deliveries"]), load_diseases(paths["diseases"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw.delivery_count > 20_000
    assert peak / raw.delivery_count <= 110


def reference_outcome(deliveries, diseases):
    """Groups and counts, or the error of the first bad fact.

    Deliveries are scanned before diagnoses, each in one stable
    (patient, day) sort; a delivery's fourth field is its quantity.
    """
    for kind, rows in (("delivery", deliveries), ("diagnosis", diseases)):
        for row in sorted(rows, key=itemgetter(0, 1)):
            if row[1] < 0:
                return NegativeDay, f"{kind} on negative day {row[1]}"
            if kind == "delivery" and row[3] < 1:
                return ValueError, f"delivery quantity must be >= 1, got {row[3]}"
    return reference_groups(deliveries), reference_groups(diseases), len(deliveries), len(diseases)


def raw_outcome(deliveries, diseases):
    try:
        raw = RawDatabase(deliveries, diseases)
    except (NegativeDay, ValueError) as exc:
        return type(exc), str(exc)
    return (
        list(raw.delivery_groups.items()),
        list(raw.disease_groups.items()),
        raw.delivery_count,
        raw.disease_count,
    )


# Hand-built rows, some on negative days or with quantities below 1.
HAND_PATIENTS = st.sampled_from(["p1", "p2", "p3"])
HAND_DAYS = st.integers(-2, 9)
HAND_DELIVERIES = st.lists(
    st.tuples(HAND_PATIENTS, HAND_DAYS, st.sampled_from("ABC"), st.integers(-1, 5)), max_size=10
)
HAND_DISEASES = st.lists(st.tuples(HAND_PATIENTS, HAND_DAYS, st.sampled_from("GI")), max_size=10)


class TestHandBuiltRows:
    @settings(derandomize=True, max_examples=400)
    @given(deliveries=HAND_DELIVERIES, diseases=HAND_DISEASES)
    # Bad facts whose input order is not their (patient, day) order.
    @example(deliveries=[("p2", -1, "A", 1), ("p1", 4, "A", 0), ("p1", 2, "B", -1)], diseases=[])
    @example(deliveries=[("p1", 3, "A", 0), ("p1", 1, "A", 1), ("p1", -2, "B", 0)], diseases=[])
    @example(
        deliveries=[("p1", 1, "A", 1)], diseases=[("p3", -1, "G"), ("p2", 0, "I"), ("p2", -2, "G")]
    )
    def test_outcome_equals_one_scan_of_the_sorted_rows(self, deliveries, diseases):
        assert raw_outcome(deliveries, diseases) == reference_outcome(deliveries, diseases)

"""Flat-file loaders for the raw event database and the knowledge base.

All four inputs are UTF-8 CSV with a header row:

* deliveries.csv: ``patient,day,cip,qty``
* diseases.csv:   ``patient,day,icd``
* kb_attributes.csv: ``cip,atc,group,generic`` (extra columns are
  accepted and ignored)
* taxonomy.csv:   ``child,parent``

Days are integer day numbers counted from the first event date, so no
calendar handling happens here. Duplicate identical event rows are kept
as distinct facts; loaders never deduplicate. `load_deliveries` and
`load_diseases` return one plain tuple per data row, in file order, and
`RawDatabase` sorts them once and keeps each patient's facts as
`DayCodes` columns. The `mine` command loads through exactly these
three calls.

Each fact file's format is stated once, by its header and
`_INT_FLOORS`. The two fact files are read in bulk: chunks of rows are
transposed into columns and checked with whole-column calls
(`map(int, ...)`, `min`, `all`). The one row validator,
`_checked_rows`, applies the same rules cell by cell, left to right:
when any bulk check fails, the file is read again by it, and it raises
the error of the first bad cell of the first bad row with its line.
The taxonomy is read by the same validator, and the attributes file's
cells are checked left to right too. Undecodable bytes and malformed
CSV (such as an oversize field) are a `ParseError` for the file on
either path. Quantities are checked but not kept: the query language
never reads them.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from itertools import groupby, islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NegativeDay, ParseError
from .knowledge import CodeAttributes, KnowledgeBase, Taxonomy

#: Data rows per bulk chunk; bounds the transient row and cell lists.
_CHUNK_ROWS = 1 << 14

_DELIVERY_HEADER = ("patient", "day", "cip", "qty")
_DISEASE_HEADER = ("patient", "day", "icd")

#: The bulk reader's integer columns and the least value each admits.
_INT_FLOORS = {"day": 0, "qty": 1}


class DayCodes(NamedTuple):
    """One patient's deliveries or diagnoses as columns, sorted by day."""

    days: tuple[int, ...]
    codes: tuple[str, ...]


def _grouped(rows: list[tuple]) -> dict[str, DayCodes]:
    """Rows sorted by patient, as one `DayCodes` per patient.

    Only the day and code columns are built; a row's later fields are
    dropped.
    """
    return {
        patient: DayCodes._make(islice(zip(*run), 1, 3))
        for patient, run in groupby(rows, itemgetter(0))
    }


def _check_facts(deliveries: list[tuple], diseases: list[tuple]) -> None:
    """Reject negative days and quantities below 1, first sorted fact first."""
    if deliveries and (
        min(map(itemgetter(1), deliveries)) < 0 or min(map(itemgetter(3), deliveries)) < 1
    ):
        for _, day, _, qty in deliveries:
            if day < 0:
                raise NegativeDay(f"delivery on negative day {day}")
            if qty < 1:
                raise ValueError(f"delivery quantity must be >= 1, got {qty}")
    negative = next(filter((0).__gt__, map(itemgetter(1), diseases)), None)
    if negative is not None:
        raise NegativeDay(f"diagnosis on negative day {negative}")


class RawDatabase:
    """Fact rows grouped by patient, each patient's sorted by day.

    `deliveries` takes (patient, day, cip, qty) rows and `diseases`
    (patient, day, icd) rows, such as `load_deliveries` and
    `load_diseases` return, in any order. They are sorted once, stably,
    by (patient, day), so rows of one patient on one day keep their
    input order; duplicates are kept. Negative days and quantities below
    1 are rejected, but only days and codes are kept. The loaders have
    checked their rows already; the check here is for rows handed in
    directly.

    `delivery_groups` and `disease_groups` map each patient, in
    ascending id order, to its `DayCodes`; treat them as read-only.
    """

    __slots__ = ("delivery_groups", "disease_groups", "delivery_count", "disease_count")

    def __init__(
        self, deliveries: Iterable[tuple] = (), diseases: Iterable[tuple] = ()
    ) -> None:
        by_patient_day = itemgetter(0, 1)
        delivery_rows = sorted(deliveries, key=by_patient_day)
        disease_rows = sorted(diseases, key=by_patient_day)
        _check_facts(delivery_rows, disease_rows)
        self.delivery_count = len(delivery_rows)
        self.disease_count = len(disease_rows)
        self.delivery_groups = _grouped(delivery_rows)
        self.disease_groups = _grouped(disease_rows)

    def patients(self) -> frozenset[str]:
        return frozenset(self.delivery_groups).union(self.disease_groups)


def undecodable(path: str) -> ParseError:
    """The error for the first line of `path` that is not UTF-8."""
    with open(path, "rb") as handle:
        # No UTF-8 sequence contains a newline byte, so lines decode alone.
        for line, data in enumerate(handle, 1):
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(
                    f"not UTF-8: byte 0x{data[exc.start]:02x} at column {exc.start + 1} "
                    f"({exc.reason})",
                    path=path,
                    line=line,
                )
    return ParseError("not UTF-8", path=path)


@contextmanager
def _csv_reader(path: str, expected: Sequence[str], exact: bool):
    """A csv reader past the validated header row, and the header's width.

    With exact=False the header may carry extra columns beyond
    `expected`. A leading UTF-8 byte-order mark is skipped. Undecodable
    bytes and csv errors, raised here or in the `with` body, become a
    ParseError for `path`.
    """
    reader = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("missing header row", path=path, line=1) from None
            names = [cell.strip() for cell in header]
            want = list(expected)
            head = names if exact else names[: len(want)]
            if head != want:
                raise ParseError(
                    f"expected header {','.join(want)}, got {','.join(names)}", path=path, line=1
                )
            yield reader, len(names)
    except UnicodeDecodeError:
        raise undecodable(path) from None
    except csv.Error as exc:
        line = reader.line_num if reader is not None else None
        raise ParseError(f"malformed CSV: {exc}", path=path, line=line) from None


def _rows(path: str, expected: Sequence[str], exact: bool) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, cells) per data row after validating the header.

    Each row is checked against the header width.
    """
    with _csv_reader(path, expected, exact) as (reader, width):
        for cells in reader:
            if len(cells) != width:
                raise ParseError(
                    f"expected {width} columns, got {len(cells)}", path=path, line=reader.line_num
                )
            yield reader.line_num, [cell.strip() for cell in cells]


def _bulk_columns(path: str, header: tuple[str, ...]) -> list[list] | None:
    """A fact file's columns in file order, or None if a row needs the row validator.

    Integer columns (`_INT_FLOORS`) must parse and reach their floor.
    Every other column is stripped and must not be empty; columns after
    the patient's are codes and upper-cased. Text values are interned,
    so each distinct patient id or code is one string object.
    """
    columns: list[list] = [[] for _ in header]
    pool: dict[str, str] = {}
    with _csv_reader(path, header, True) as (reader, width):
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            if not all(map(width.__eq__, map(len, chunk))):
                return None
            for name, column, cells in zip(header, columns, zip(*chunk)):
                if name in _INT_FLOORS:
                    try:
                        values = list(map(int, cells))
                    except ValueError:
                        return None
                    if min(values) < _INT_FLOORS[name]:
                        return None
                    column += values
                else:
                    values = list(map(str.strip, cells))
                    if name != "patient":
                        values = list(map(str.upper, values))
                    if not all(values):
                        return None
                    column += map(pool.setdefault, values, values)
    return columns


def _parse_int(text: str, what: str, path: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}", path=path, line=line) from None


def _require(text: str, what: str, path: str, line: int) -> str:
    if not text:
        raise ParseError(f"{what} must not be empty", path=path, line=line)
    return text


def _checked_rows(path: str, header: tuple[str, ...]) -> list[tuple]:
    """The row validator for a fact file: one row per data row, in file order.

    Applies `_bulk_columns`'s rules to each cell, left to right, and
    raises the first miss: a day below its floor is a `NegativeDay`.
    """
    rows = []
    for line, cells in _rows(path, header, True):
        row = []
        for name, cell in zip(header, cells):
            if name in _INT_FLOORS:
                value, floor = _parse_int(cell, name, path, line), _INT_FLOORS[name]
                if value < floor:
                    error = NegativeDay if name == "day" else ParseError
                    raise error(f"{name} must be >= {floor}, got {value}", path=path, line=line)
            else:
                value = _require(cell, name, path, line)
                if name != "patient":
                    value = value.upper()
            row.append(value)
        rows.append(tuple(row))
    return rows


def _fact_rows(path: str, header: tuple[str, ...]) -> list[tuple]:
    """One tuple of `header`'s fields per data row of a fact file, in file order."""
    columns = _bulk_columns(path, header)
    return _checked_rows(path, header) if columns is None else list(zip(*columns))


def load_deliveries(path: str) -> list[tuple[str, int, str, int]]:
    """Parse deliveries.csv: one (patient, day, cip, qty) per data row, in file order."""
    return _fact_rows(path, _DELIVERY_HEADER)


def load_diseases(path: str) -> list[tuple[str, int, str]]:
    """Parse diseases.csv: one (patient, day, icd) per data row, in file order."""
    return _fact_rows(path, _DISEASE_HEADER)


def load_kb(attributes_path: str, taxonomy_path: str) -> KnowledgeBase:
    """Parse both KB files; validates code uniqueness and taxonomy acyclicity.

    An attributes row reports its leftmost bad cell, as a fact row does.
    """
    attr_rows = []
    for line, cells in _rows(attributes_path, ("cip", "atc", "group", "generic"), False):
        cip, atc, group, generic = cells[:4]
        # A tuple display evaluates left to right, so the leftmost miss raises.
        row = (
            _require(cip, "cip", attributes_path, line),
            _require(atc, "atc", attributes_path, line),
            _require(group, "group", attributes_path, line),
            _parse_int(generic, "generic", attributes_path, line),
        )
        if row[3] not in (0, 1):
            raise ParseError(
                f"generic must be 0 or 1, got {row[3]}", path=attributes_path, line=line
            )
        attr_rows.append(row)
    edges = _checked_rows(taxonomy_path, ("child", "parent"))
    return KnowledgeBase(CodeAttributes.from_rows(attr_rows), Taxonomy.from_edges(edges))

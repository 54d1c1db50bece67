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
`load_diseases` return one plain tuple per data row, in file order.
`RawDatabase` sorts them stably by patient, then each patient's run
stably by day, and keeps each patient's facts as `DayCodes` columns,
checking their days and quantities as it builds them; neither sort
builds a key tuple per row. The `mine` command loads through exactly
these three calls.

Each column of the four files has one rule, stated once by `_value`:
the cell is stripped; `day`, `qty` and `generic` are ASCII integers
with their bounds; any other cell must not be empty, and every text
column but `patient` is a code, normalised as everywhere else by
`knowledge.normalize_code`, so codes match case-insensitively. Every
file can be read by one row validator, `_checked_rows`, which reads it
cell by cell with `csv` and applies the rule to each row's cells left to
right, once per distinct cell text (`_Checked`), so a bad row reports
its leftmost bad cell with its line. The taxonomy and the attributes
file are read that way. Plain CSV fact files, such as `synth` writes,
are read in bulk instead (`_bulk_rows`). Each block is a fixed number
of characters completed to the end of its last line by one `readline`,
bounded by the longest line a valid row can fill, so a longer line is
refused before it is read whole. A block is split into cells by one C
call, and the same rule runs once per distinct cell text (`_Column`),
so a file of many rows over few patients, days and codes costs few
Python calls. A fact file the bulk reader cannot vouch for, such as
one holding a quote character or NUL, a blank line, an over-long line
or a bad cell, is read again by the validator: the same rows, or the
error of the first bad cell of the first bad row with its line, more
slowly.
Undecodable bytes and malformed CSV (such as an oversize field) are a
`ParseError` for the file on either path. Quantities are checked but
not kept: the query language never reads them.
"""

from __future__ import annotations

import csv
import re
from itertools import groupby
from operator import getitem, itemgetter
from typing import Iterable, NamedTuple

from .errors import NegativeDay, ParseError
from .knowledge import CodeAttributes, KnowledgeBase, Taxonomy, normalize_code

#: Characters per bulk block before its last line is completed; bounds the
#: transient cell lists.
_BLOCK_CHARS = 1 << 15

_DELIVERY_HEADER = ("patient", "day", "cip", "qty")
_DISEASE_HEADER = ("patient", "day", "icd")

#: The integer columns and the least value each admits.
_INT_FLOORS = {"day": 0, "qty": 1, "generic": 0}

#: An integer cell: ASCII digits only, where int() also takes `_` and other scripts' digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class DayCodes(NamedTuple):
    """One patient's deliveries or diagnoses as columns, sorted by day."""

    days: tuple[int, ...]
    codes: tuple[str, ...]


def _short_row(kind: str) -> str:
    """What a `kind` row ("delivery" or "diagnosis") shorter than its header lacks."""
    fields = _DELIVERY_HEADER if kind == "delivery" else _DISEASE_HEADER
    return f"a {kind} row without all of ({', '.join(fields)})"


def _grouped(rows: list[tuple], kind: str) -> dict[str, DayCodes]:
    """Rows sorted by patient, as one `DayCodes` per patient, stably sorted by day.

    `kind` is "delivery" or "diagnosis". Each patient's facts are checked
    as its columns are built. A row with fewer fields than the kind's
    header raises a `ValueError` naming them; extra fields are ignored.
    Its first day is its least, so walking the patients in order raises
    a `NegativeDay` for the first negative day in (patient, day) order,
    and for deliveries a `ValueError` for the first quantity below 1, a
    row's fourth field. Only the day and code columns are kept.
    """
    width = len(_DELIVERY_HEADER if kind == "delivery" else _DISEASE_HEADER)
    by_day = itemgetter(1)
    groups = {}
    for patient, run in groupby(rows, itemgetter(0)):
        try:
            columns = tuple(zip(*sorted(run, key=by_day)))
        except IndexError:  # a row without a day
            columns = ()
        # zip stops at the narrowest row, so a short row drops a column.
        if len(columns) < width:
            raise ValueError(f"patient {patient!r} has {_short_row(kind)}")
        _, days, codes, *rest = columns
        if days[0] < 0:
            raise NegativeDay(f"{kind} on negative day {days[0]}")
        if kind == "delivery" and min(rest[0]) < 1:
            bad = next(filter((1).__gt__, rest[0]))
            raise ValueError(f"delivery quantity must be >= 1, got {bad}")
        groups[patient] = DayCodes(days, codes)
    return groups


class RawDatabase:
    """Fact rows grouped by patient, each patient's sorted by day.

    `deliveries` takes (patient, day, cip, qty) rows and `diseases`
    (patient, day, icd) rows, such as `load_deliveries` and
    `load_diseases` return, in any order. They are sorted stably by
    patient, then each patient's rows stably by day, so rows of one
    patient on one day keep their input order; duplicates are kept.
    Neither sort builds a key tuple per row. The sorted rows are read
    once, as each patient's columns are built. A row without even a
    patient fails the sort; otherwise that pass rejects the first
    patient, in id order, with a row shorter than its kind, and the
    first negative day or quantity below 1 in (patient, day) order,
    deliveries before diagnoses; only days and codes are kept. The
    loaders have checked their rows already; the check is for rows
    handed in directly.

    `delivery_groups` and `disease_groups` map each patient, in
    ascending id order, to its `DayCodes`; treat them as read-only.
    """

    __slots__ = ("delivery_groups", "disease_groups", "delivery_count", "disease_count")

    def __init__(
        self, deliveries: Iterable[tuple] = (), diseases: Iterable[tuple] = ()
    ) -> None:
        # The key is the interned patient id itself, so no tuple is made per row.
        by_patient = itemgetter(0)
        try:
            delivery_rows = sorted(deliveries, key=by_patient)
        except IndexError:  # a row without a patient
            raise ValueError(_short_row("delivery")) from None
        try:
            disease_rows = sorted(diseases, key=by_patient)
        except IndexError:
            raise ValueError(_short_row("diagnosis")) from None
        self.delivery_count = len(delivery_rows)
        self.disease_count = len(disease_rows)
        self.delivery_groups = _grouped(delivery_rows, "delivery")
        self.disease_groups = _grouped(disease_rows, "diagnosis")

    def patients(self) -> frozenset[str]:
        return frozenset(self.delivery_groups).union(self.disease_groups)


def undecodable(path: str, lines: Iterable[bytes]) -> ParseError:
    """The error for the first of `path`'s lines, read as bytes, that is not UTF-8."""
    # No UTF-8 sequence contains a newline byte, so lines decode alone.
    for line, data in enumerate(lines, 1):
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


def _value(name: str, text: str) -> int | str:
    """The value of one cell of input column `name`: the rule for every column.

    The cell is stripped. An integer column (`_INT_FLOORS`) must be
    ASCII digits after an optional sign and reach its floor, and
    `generic` is 0 or 1; a day below 0 is a `NegativeDay`. Any other
    column must not be empty: `patient` is kept as written, and every
    other text column is a code, normalised by `normalize_code`. A miss
    raises a `ParseError` without a path or line.
    """
    cell = text.strip()
    if name in _INT_FLOORS:
        try:
            if not _INTEGER.fullmatch(cell):
                raise ValueError
            # int() still refuses a digit string past its length limit.
            value = int(cell)
        except ValueError:
            raise ParseError(f"{name} must be an integer, got {cell!r}") from None
        if name == "generic" and value not in (0, 1):
            raise ParseError(f"generic must be 0 or 1, got {value}")
        floor = _INT_FLOORS[name]
        if value < floor:
            error = NegativeDay if name == "day" else ParseError
            raise error(f"{name} must be >= {floor}, got {value}")
        return value
    if not cell:
        raise ParseError(f"{name} must not be empty")
    return cell if name == "patient" else normalize_code(cell)


class _Checked(dict):
    """One column's checked values, keyed by raw cell text.

    `__missing__` applies the column's rule, `_value`, to each distinct
    text once, so a file of many rows over few patients, days and codes
    is checked in few Python calls. Text values are interned through
    `pool`, so each distinct patient id or code is one string object,
    and equal day texts share one int. A text the rule rejects raises
    its `ParseError` and is not kept.
    """

    __slots__ = ("name", "pool")

    def __init__(self, name: str, pool: dict[str, str]) -> None:
        super().__init__()
        self.name, self.pool = name, pool

    def __missing__(self, text: str) -> int | str:
        value = self[text] = self.check(text)
        return value

    def check(self, text: str) -> int | str:
        value = _value(self.name, text)
        return self.pool.setdefault(value, value) if type(value) is str else value


def _checked_rows(path: str, header: tuple[str, ...], exact: bool = True) -> list[tuple]:
    """The row validator: one tuple of `header`'s values per data row, in file order.

    The file is read cell by cell with `csv`. Its stripped header must
    be `header`; with exact=False it may carry extra columns, whose
    cells are dropped. Each row must be as wide as the header, and its
    cells are checked left to right through one `_Checked` per column,
    so the rule runs once per distinct cell text, equal texts share one
    value, and the first miss raises. A leading UTF-8 byte-order mark is
    skipped. Undecodable bytes and csv errors become a ParseError for
    `path`.
    """
    reader = None
    rows = []
    pool: dict[str, str] = {}
    columns = [_Checked(name, pool) for name in header]
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                names = [cell.strip() for cell in next(reader)]
            except StopIteration:
                raise ParseError("missing header row", path=path, line=1) from None
            if (names if exact else names[: len(header)]) != list(header):
                raise ParseError(
                    f"expected header {','.join(header)}, got {','.join(names)}",
                    path=path,
                    line=1,
                )
            width = len(names)
            for cells in reader:
                if len(cells) != width:
                    raise ParseError(
                        f"expected {width} columns, got {len(cells)}",
                        path=path,
                        line=reader.line_num,
                    )
                try:
                    rows.append(tuple(map(getitem, columns, cells)))
                except ParseError as exc:
                    # The rule's own message, placed at this file and line.
                    raise type(exc)(str(exc), path=path, line=reader.line_num) from None
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            raise undecodable(path, handle) from None
    except csv.Error as exc:
        line = reader.line_num if reader is not None else None
        raise ParseError(f"malformed CSV: {exc}", path=path, line=line) from None
    return rows


class _Column(_Checked):
    """A `_Checked` column of the bulk reader, keyed by the split's cell text.

    A text the rule rejects raises the rule's `ParseError`, and so does
    one the split in `_bulk_rows` cannot vouch for.
    """

    __slots__ = ("first", "limit")

    def __init__(self, name: str, first: bool, pool: dict[str, str], limit: int) -> None:
        super().__init__(name, pool)
        self.first, self.limit = first, limit

    def check(self, text: str) -> int | str:
        cell = text[1:] if self.first else text
        # Only a row's first cell carries the newline, and no other cell holds
        # one. csv would unquote, or on some versions reject NUL.
        misplaced = text.startswith("\n") != self.first
        if misplaced or len(cell) > self.limit or '"' in cell or "\0" in cell:
            raise ParseError("left to the row validator")
        return super().check(cell)


def _bulk_rows(path: str, header: tuple[str, ...]) -> list[tuple] | None:
    """A fact file's rows in file order, or None if a row needs the row validator.

    The file is read with universal newlines, so its lines end where
    csv's do. Each block is `_BLOCK_CHARS` characters completed by one
    `readline` bounded by the longest line a valid row can fill, so a
    block ends at a line's end, and a longer line is refused before it
    is read whole. A block is split into cells by one C call, leaving a
    newline at the start of each row's first cell; column k is every
    `width`-th cell from k. The rows are aligned, each with `width`
    cells, exactly when the cell count is a multiple of `width`, every
    first-column text carries the newline and no other text does, which
    the `_Column` lookups check. A header that is not exactly `header`
    after stripping, undecodable bytes and any refused cell give None.
    """
    width = len(header)
    limit = csv.field_size_limit()
    longest = width * (limit + 1)
    pool: dict[str, str] = {}
    columns = [_Column(name, k == 0, pool, limit) for k, name in enumerate(header)]
    rows: list[tuple] = []
    try:
        with open(path, encoding="utf-8-sig") as handle:
            names = handle.readline().rstrip("\n").split(",")
            if [name.strip() for name in names] != list(header):
                return None
            while block := handle.read(_BLOCK_CHARS):
                tail = handle.readline(longest)
                if len(tail) == longest and not tail.endswith("\n"):
                    return None
                cells = ("\n" + block + tail).removesuffix("\n").replace("\n", ",\n").split(",")[1:]
                if len(cells) % width:
                    return None
                rows += zip(
                    *[map(column.__getitem__, cells[k::width]) for k, column in enumerate(columns)]
                )
    except (UnicodeDecodeError, ParseError):
        return None
    return rows


def _fact_rows(path: str, header: tuple[str, ...]) -> list[tuple]:
    """One tuple of `header`'s fields per data row of a fact file, in file order."""
    rows = _bulk_rows(path, header)
    return _checked_rows(path, header) if rows is None else rows


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
    attr_rows = _checked_rows(attributes_path, ("cip", "atc", "group", "generic"), exact=False)
    edges = _checked_rows(taxonomy_path, ("child", "parent"))
    return KnowledgeBase(CodeAttributes.from_rows(attr_rows), Taxonomy.from_edges(edges))

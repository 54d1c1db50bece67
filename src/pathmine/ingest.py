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
`load_diseases` return a fact file's rows as one `FactColumns`: a
patient, a day and a code list, in file order, with no object made per
row. `RawDatabase` groups the columns by patient, each patient's run
stably sorted by day, and keeps each patient's facts as `DayCodes`
columns, checking their days as it builds them. A file sorted by
patient, such as `synth` writes, is grouped by slicing each patient's
run off the columns; any other order is first sorted stably by
patient, by index. The `mine` command loads through exactly these three
calls.

Each column of the four files has one rule, stated once by `_value`:
the cell is stripped; `day`, `qty` and `generic` are ASCII integers
with their bounds; any other cell must not be empty, and every text
column but `patient` is a code, normalised as everywhere else by
`knowledge.normalize_code`, so codes match case-insensitively. Quantities
are checked but not kept: the query language never reads them.

Every file is opened once and read once, as text with universal
newlines, so a pipe or FIFO reads as a regular file does. Bytes that
are not UTF-8 are decoded as lone surrogates (`surrogateescape`) and
refused where they are read, with their line and column. One row
validator, `_checked_rows`, reads lines cell by cell with `csv` and
applies the rule to each row's cells left to right, once per distinct
cell text (`_Checked`), so a bad row reports its leftmost bad cell with
its line. The taxonomy and the attributes file are read that way.
Fact files are read in bulk instead (`_bulk_read`). Each block is a
fixed number of characters completed to the end of its last line by
one `readline`, bounded by the longest line a valid row can fill, so a
longer line is refused before it is read whole. A block is split into
cells by one C call, and the same rule runs once per distinct cell
text (`_Column`), so a file of many rows over few patients, days and
codes costs few Python calls. At the first block the bulk reader
cannot vouch for, such as one holding a quote character, NUL, an
undecodable byte, a blank line, an over-long line or a bad cell, the
row validator reads on from that block's first line on the same
handle, into the same columns: the same rows, or the error of the
first bad line in file order, more slowly. Malformed CSV (such as an
oversize field) is a `ParseError` for the file too.
"""

from __future__ import annotations

import csv
import io
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import getitem, itemgetter, le
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .errors import NegativeDay, ParseError
from .knowledge import CodeAttributes, KnowledgeBase, Taxonomy, normalize_code

#: Characters per bulk block before its last line is completed; bounds the
#: transient cell lists.
_BLOCK_CHARS = 1 << 15

#: Rows the row validator hands over per transposition into fact columns.
_CHUNK_ROWS = 1 << 10

_DELIVERY_HEADER = ("patient", "day", "cip", "qty")
_DISEASE_HEADER = ("patient", "day", "icd")

#: The integer columns and the least value each admits.
_INT_FLOORS = {"day": 0, "qty": 1, "generic": 0}

#: An integer cell: ASCII digits only, where int() also takes `_` and other scripts' digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")

#: A byte that is not UTF-8, as `surrogateescape` decodes it.
_UNDECODED = re.compile("[\udc80-\udcff]")


class DayCodes(NamedTuple):
    """One patient's deliveries or diagnoses as columns, sorted by day."""

    days: tuple[int, ...]
    codes: tuple[str, ...]


@dataclass(slots=True)
class FactColumns:
    """A fact file's rows as columns, in file order: row k is entry k of each.

    `len()` is the row count. The quantities of deliveries are checked
    by the loader but not kept.
    """

    patients: list[str] = field(default_factory=list)
    days: list[int] = field(default_factory=list)
    codes: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.patients)


def _short_row(kind: str) -> str:
    """What a `kind` row ("delivery" or "diagnosis") shorter than its header lacks."""
    fields = _DELIVERY_HEADER if kind == "delivery" else _DISEASE_HEADER
    return f"a {kind} row without all of ({', '.join(fields)})"


def _transposed(rows: Iterable[tuple], kind: str) -> tuple[FactColumns, list | None]:
    """Hand-built rows as `FactColumns`, and for deliveries their quantities.

    A row shorter than its kind's header raises a `ValueError`: one
    without even a patient before any other, else naming the least
    patient id with a short row. Extra fields are ignored.
    """
    rows = list(rows)
    width = len(_DELIVERY_HEADER if kind == "delivery" else _DISEASE_HEADER)
    short = [row for row in rows if len(row) < width]
    if short:
        if not all(short):
            raise ValueError(_short_row(kind))
        raise ValueError(f"patient {min(row[0] for row in short)!r} has {_short_row(kind)}")
    patients, days, codes, *quantities = (list(map(itemgetter(k), rows)) for k in range(width))
    return FactColumns(patients, days, codes), (quantities[0] if quantities else None)


def _ascending(values: Sequence) -> bool:
    """Whether `values` never decrease, in one C-level pass."""
    return all(map(le, values, islice(values, 1, None)))


def _run(kind: str, days: Sequence, codes: Sequence, quantities: Sequence | None) -> DayCodes:
    """One patient's facts in input order, stably sorted by day and checked.

    The days are index-sorted only when they are out of order. The first
    day is then the least, so a negative one raises a `NegativeDay`;
    otherwise the first quantity below 1 in day order raises a
    `ValueError`.
    """
    if not _ascending(days):
        order = sorted(range(len(days)), key=days.__getitem__)
        days, codes = list(map(days.__getitem__, order)), list(map(codes.__getitem__, order))
        if quantities is not None:
            quantities = list(map(quantities.__getitem__, order))
    if days[0] < 0:
        raise NegativeDay(f"{kind} on negative day {days[0]}")
    if quantities is not None and min(quantities) < 1:
        bad = next(filter((1).__gt__, quantities))
        raise ValueError(f"delivery quantity must be >= 1, got {bad}")
    return DayCodes(tuple(days), tuple(codes))


def _grouped(facts: FactColumns, kind: str, quantities: list | None) -> dict[str, DayCodes]:
    """The facts as one `DayCodes` per patient, in ascending patient order.

    `kind` is "delivery" or "diagnosis". A patient column that is
    already ascending has each patient's run sliced off; any other is
    first index-sorted stably by patient, and each run's indices are then
    sorted stably by day before its columns are gathered. Runs are built
    and checked in patient order (`_run`).
    """
    patients = facts.patients
    columns = (facts.days, facts.codes, quantities)
    groups = {}
    if _ascending(patients):
        end = 0
        while end < len(patients):
            start, patient = end, patients[end]
            end = bisect_right(patients, patient, start)
            runs = (None if column is None else column[start:end] for column in columns)
            groups[patient] = _run(kind, *runs)
        return groups
    order = sorted(range(len(patients)), key=patients.__getitem__)
    counts = Counter(patients)
    end = 0
    for patient in sorted(counts):
        start, end = end, end + counts[patient]
        # The run's indices in day order, so that each column is gathered once.
        rows = sorted(order[start:end], key=facts.days.__getitem__)
        runs = (
            None if column is None else tuple(map(column.__getitem__, rows)) for column in columns
        )
        groups[patient] = _run(kind, *runs)
    return groups


class RawDatabase:
    """Fact rows grouped by patient, each patient's sorted by day.

    `deliveries` and `diseases` each take a `FactColumns`, as
    `load_deliveries` and `load_diseases` return, or rows built by
    hand: (patient, day, cip, qty) and (patient, day, icd) tuples, which
    are transposed once into the same columns, the quantities kept
    aside to be checked. Rows may come in any order. A patient column
    that is already ascending is grouped by slicing; any other is first
    sorted stably by patient. Each patient's run is sorted stably by day
    only if its days are out of order, so facts of one patient on one
    day keep their input order; duplicates are kept. A hand-built row
    shorter than its kind is refused before any other check, naming the
    least patient id with one (or none, for a row without a patient).
    Otherwise the first negative day or quantity below 1 in (patient,
    day) order raises, deliveries before diagnoses; only days and codes
    are kept. The loaders have checked their facts already; the check is
    for rows handed in directly.

    `delivery_groups` and `disease_groups` map each patient, in
    ascending id order, to its `DayCodes`; treat them as read-only.
    """

    __slots__ = ("delivery_groups", "disease_groups", "delivery_count", "disease_count")

    def __init__(
        self,
        deliveries: FactColumns | Iterable[tuple] = (),
        diseases: FactColumns | Iterable[tuple] = (),
    ) -> None:
        quantities = None
        if not isinstance(deliveries, FactColumns):
            deliveries, quantities = _transposed(deliveries, "delivery")
        if not isinstance(diseases, FactColumns):
            diseases, _ = _transposed(diseases, "diagnosis")
        self.delivery_count = len(deliveries)
        self.disease_count = len(diseases)
        self.delivery_groups = _grouped(deliveries, "delivery", quantities)
        self.disease_groups = _grouped(diseases, "diagnosis", None)

    def patients(self) -> frozenset[str]:
        return frozenset(self.delivery_groups).union(self.disease_groups)


def undecodable(path: str, lines: Iterable[bytes], first: int = 1) -> ParseError:
    """The error for the first of `path`'s lines, read as bytes, that is not UTF-8.

    The lines are numbered from `first`.
    """
    # No UTF-8 sequence contains a newline byte, so lines decode alone.
    for line, data in enumerate(lines, first):
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


def _opened(path: str) -> IO[str]:
    """`path` opened once as UTF-8 text with universal newlines.

    A byte that is not UTF-8 is read as a lone surrogate, which
    `_decoded` and `_Column` refuse. The readers skip a leading
    byte-order mark themselves, so that it counts in line 1's columns.
    """
    return open(path, encoding="utf-8", errors="surrogateescape")


def _decoded(path: str, lines: Iterable[str], line: int) -> Iterator[str]:
    """`lines`, numbered from `line` + 1; one holding an undecodable byte raises.

    Line 1 is yielded without its byte-order mark, if any.
    """
    for line, text in enumerate(lines, line + 1):
        if not text.isascii() and _UNDECODED.search(text):
            raise undecodable(path, [text.encode("utf-8", "surrogateescape")], line)
        yield text.removeprefix("\ufeff") if line == 1 else text


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
    is checked in few Python calls. Values are interned through `pool`,
    which one file's readers share, so each distinct patient id, code or
    day is one object. A text the rule rejects raises its `ParseError`
    and is not kept.
    """

    __slots__ = ("name", "pool")

    def __init__(self, name: str, pool: dict) -> None:
        super().__init__()
        self.name, self.pool = name, pool

    def __missing__(self, text: str) -> int | str:
        value = self[text] = self.check(text)
        return value

    def check(self, text: str) -> int | str:
        value = _value(self.name, text)
        return self.pool.setdefault(value, value)


def _checked_rows(
    path: str,
    lines: Iterable[str],
    header: tuple[str, ...],
    exact: bool = True,
    line: int = 0,
    pool: dict | None = None,
) -> Iterator[tuple]:
    """The row validator: one tuple of `header`'s values per data row of `lines`.

    `lines` are read cell by cell with `csv`, after `line` lines of the
    file. From the file's start (line 0) the first row is the header:
    its stripped names must be `header`, and with exact=False it may
    carry extra columns, whose cells are dropped. Later, the bulk reader
    has read the exact header. Each row must be as wide as the header,
    and its cells are checked left to right through one `_Checked` per
    column, so the rule runs once per distinct cell text, equal texts
    share one value, and the first miss raises. A line with an
    undecodable byte and csv errors become a ParseError for `path`.
    """
    pool = {} if pool is None else pool
    columns = [_Checked(name, pool) for name in header]
    reader = csv.reader(_decoded(path, lines, line))
    try:
        width = len(header)
        if line == 0:
            try:
                names = [cell.strip() for cell in next(reader)]
            except StopIteration:
                raise ParseError("missing header row", path=path, line=1) from None
            if (names if exact else names[:width]) != list(header):
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
                    line=line + reader.line_num,
                )
            try:
                row = tuple(map(getitem, columns, cells))
            except ParseError as exc:
                # The rule's own message, placed at this file and line.
                raise type(exc)(str(exc), path=path, line=line + reader.line_num) from None
            yield row
    except csv.Error as exc:
        raise ParseError(
            f"malformed CSV: {exc}", path=path, line=line + reader.line_num
        ) from None


class _Column(_Checked):
    """A `_Checked` column of the bulk reader, keyed by the split's cell text.

    A text the rule rejects raises the rule's `ParseError`, and so does
    one the split in `_bulk_read` cannot vouch for.
    """

    __slots__ = ("first", "limit")

    def __init__(self, name: str, first: bool, pool: dict, limit: int) -> None:
        super().__init__(name, pool)
        self.first, self.limit = first, limit

    def check(self, text: str) -> int | str:
        cell = text[1:] if self.first else text
        # Only a row's first cell carries the newline, and no other cell holds
        # one. csv would unquote, or on some versions reject NUL, and the row
        # validator locates an undecodable byte.
        misplaced = text.startswith("\n") != self.first
        undecoded = not cell.isascii() and _UNDECODED.search(cell)
        if misplaced or undecoded or len(cell) > self.limit or '"' in cell or "\0" in cell:
            raise ParseError("left to the row validator")
        return super().check(cell)


def _bulk_read(
    handle: IO[str], header: tuple[str, ...], facts: FactColumns, pool: dict
) -> tuple[int, str | None]:
    """Reads a fact file's rows onto `facts` until a block needs the row validator.

    Returns the lines read in bulk and the text read but not taken, or
    None for it at the end of the file. A header that is not exactly
    `header` after stripping leaves its line untaken. Each block is
    `_BLOCK_CHARS` characters completed by one `readline` bounded by the
    longest line a valid row can fill, so a block ends at a line's end,
    and a longer line is refused before it is read whole. A block is
    split into cells by one C call, leaving a newline at the start of
    each row's first cell; column k is every `width`-th cell from k. The
    rows are aligned, each with `width` cells, exactly when the cell
    count is a multiple of `width`, every first-column text carries the
    newline and no other text does, which the `_Column` lookups check.
    Each column's block of values is mapped whole before any is kept,
    and the quantities are dropped.
    """
    width = len(header)
    limit = csv.field_size_limit()
    longest = width * (limit + 1)
    columns = [_Column(name, k == 0, pool, limit) for k, name in enumerate(header)]
    kept = (facts.patients, facts.days, facts.codes)
    text = handle.readline()
    names = text.removeprefix("\ufeff").rstrip("\n").split(",")
    if [name.strip() for name in names] != list(header):
        return 0, text
    line = 1
    while text := handle.read(_BLOCK_CHARS):
        tail = handle.readline(longest)
        text += tail
        if len(tail) == longest and not tail.endswith("\n"):
            return line, text
        cells = ("\n" + text).removesuffix("\n").replace("\n", ",\n").split(",")[1:]
        if len(cells) % width:
            return line, text
        try:
            values = [
                list(map(column.__getitem__, cells[k::width])) for k, column in enumerate(columns)
            ]
        except ParseError:
            return line, text
        for column, new in zip(kept, values):
            column += new
        line += len(values[0])
    return line, None


def _fact_columns(path: str, header: tuple[str, ...]) -> FactColumns:
    """A fact file's patient, day and code columns, in file order, read once.

    The bulk reader takes every block it can vouch for. From the first
    it cannot, the row validator reads on, over the text already read
    and then the same handle, numbering lines from where the bulk reader
    stopped, and its rows are transposed onto the same columns a chunk
    at a time.
    """
    facts = FactColumns()
    pool: dict = {}
    with _opened(path) as handle:
        line, text = _bulk_read(handle, header, facts, pool)
        if text is None:
            return facts
        if not text.endswith("\n"):
            text += handle.readline()  # the rest of a line the bound cut
        lines = chain(io.StringIO(text), handle)
        rows = _checked_rows(path, lines, header, line=line, pool=pool)
        kept = (facts.patients, facts.days, facts.codes)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            for column, values in zip(kept, zip(*chunk)):
                column += values
    return facts


def load_deliveries(path: str) -> FactColumns:
    """Parse deliveries.csv: its patient, day and cip columns, in file order."""
    return _fact_columns(path, _DELIVERY_HEADER)


def load_diseases(path: str) -> FactColumns:
    """Parse diseases.csv: its patient, day and icd columns, in file order."""
    return _fact_columns(path, _DISEASE_HEADER)


def _file_rows(path: str, header: tuple[str, ...], exact: bool = True) -> list[tuple]:
    """A knowledge-base file's rows, read once by the row validator."""
    with _opened(path) as handle:
        return list(_checked_rows(path, handle, header, exact))


def load_kb(attributes_path: str, taxonomy_path: str) -> KnowledgeBase:
    """Parse both KB files; validates code uniqueness and taxonomy acyclicity.

    An attributes row reports its leftmost bad cell, as a fact row does.
    """
    attr_rows = _file_rows(attributes_path, ("cip", "atc", "group", "generic"), exact=False)
    edges = _file_rows(taxonomy_path, ("child", "parent"))
    return KnowledgeBase(CodeAttributes.from_rows(attr_rows), Taxonomy.from_edges(edges))

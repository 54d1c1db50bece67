"""Flat-file loaders for the raw event database and the knowledge base.

All four inputs are UTF-8 CSV with a header row:

* deliveries.csv: ``patient,day,cip,qty``
* diseases.csv:   ``patient,day,icd``
* kb_attributes.csv: ``cip,atc,group,generic`` (extra columns are
  accepted and ignored)
* taxonomy.csv:   ``child,parent``

Days are integer day numbers counted from the first event date, so no
calendar handling happens here. Duplicate identical event rows are kept
as distinct facts; loaders never deduplicate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import NegativeDay, ParseError
from .knowledge import CodeAttributes, KnowledgeBase, Taxonomy


class DeliveryFact(NamedTuple):
    patient: str
    day: int
    cip: str
    qty: int


class DiseaseFact(NamedTuple):
    patient: str
    day: int
    icd: str


@dataclass(frozen=True)
class RawDatabase:
    """Immutable fact lists, sorted by (patient, day), duplicates kept.

    The loaders keep file order; the facts are sorted here, once. The
    sort is stable, so facts of one patient on one day keep their order.
    """

    deliveries: tuple[DeliveryFact, ...] = ()
    diseases: tuple[DiseaseFact, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "deliveries", tuple(sorted(self.deliveries, key=lambda f: (f.patient, f.day)))
        )
        object.__setattr__(
            self, "diseases", tuple(sorted(self.diseases, key=lambda f: (f.patient, f.day)))
        )
        for fact in self.deliveries:
            if fact.day < 0:
                raise NegativeDay(f"delivery on negative day {fact.day}")
            if fact.qty < 1:
                raise ValueError(f"delivery quantity must be >= 1, got {fact.qty}")
        for fact in self.diseases:
            if fact.day < 0:
                raise NegativeDay(f"diagnosis on negative day {fact.day}")

    def patients(self) -> frozenset[str]:
        return frozenset(f.patient for f in self.deliveries) | frozenset(
            f.patient for f in self.diseases
        )


def _rows(path: str, expected: Sequence[str], exact: bool) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, cells) per data row after validating the header.

    With exact=False the header may carry extra columns beyond
    `expected`; each row is still checked against the header width.
    """
    with open(path, newline="", encoding="utf-8") as handle:
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
        width = len(names)
        for cells in reader:
            if len(cells) != width:
                raise ParseError(
                    f"expected {width} columns, got {len(cells)}", path=path, line=reader.line_num
                )
            yield reader.line_num, [cell.strip() for cell in cells]


def _parse_int(text: str, what: str, path: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}", path=path, line=line) from None


def _parse_day(text: str, path: str, line: int) -> int:
    day = _parse_int(text, "day", path, line)
    if day < 0:
        raise NegativeDay(f"day must be >= 0, got {day}", path=path, line=line)
    return day


def _require(text: str, what: str, path: str, line: int) -> str:
    if not text:
        raise ParseError(f"{what} must not be empty", path=path, line=line)
    return text


def load_deliveries(path: str) -> tuple[DeliveryFact, ...]:
    """Parse deliveries.csv; one fact per data row, in file order."""
    facts = []
    for line, (patient, day, cip, qty) in _rows(path, ("patient", "day", "cip", "qty"), True):
        quantity = _parse_int(qty, "qty", path, line)
        if quantity < 1:
            raise ParseError(f"qty must be >= 1, got {quantity}", path=path, line=line)
        facts.append(
            DeliveryFact(
                _require(patient, "patient", path, line),
                _parse_day(day, path, line),
                _require(cip, "cip", path, line).upper(),
                quantity,
            )
        )
    return tuple(facts)


def load_diseases(path: str) -> tuple[DiseaseFact, ...]:
    """Parse diseases.csv; one fact per data row, in file order."""
    facts = []
    for line, (patient, day, icd) in _rows(path, ("patient", "day", "icd"), True):
        facts.append(
            DiseaseFact(
                _require(patient, "patient", path, line),
                _parse_day(day, path, line),
                _require(icd, "icd", path, line).upper(),
            )
        )
    return tuple(facts)


def load_kb(attributes_path: str, taxonomy_path: str) -> KnowledgeBase:
    """Parse both KB files; validates code uniqueness and taxonomy acyclicity."""
    attr_rows = []
    for line, cells in _rows(attributes_path, ("cip", "atc", "group", "generic"), False):
        cip, atc, group, generic = cells[:4]
        flag = _parse_int(generic, "generic", attributes_path, line)
        if flag not in (0, 1):
            raise ParseError(f"generic must be 0 or 1, got {flag}", path=attributes_path, line=line)
        attr_rows.append(
            (
                _require(cip, "cip", attributes_path, line),
                _require(atc, "atc", attributes_path, line),
                _require(group, "group", attributes_path, line),
                flag,
            )
        )
    edges = []
    for line, (child, parent) in _rows(taxonomy_path, ("child", "parent"), True):
        edges.append(
            (
                _require(child, "child", taxonomy_path, line),
                _require(parent, "parent", taxonomy_path, line),
            )
        )
    return KnowledgeBase(CodeAttributes.from_rows(attr_rows), Taxonomy.from_edges(edges))

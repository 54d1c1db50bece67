"""Case-crossover sequence construction.

Turns raw facts into one pair of event sequences per patient: deliveries
in the at-risk window before the patient's index event (positive) and in
the earlier control window (negative). The patient serves as their own
control. Window bounds are strict on both ends, so with the usual
offsets a delivery exactly 90 days before the index date lands in
neither sequence.

Reification goes through one event mapping per task
(`make_event_mapping`), which is the task's code table: it looks each
distinct delivery code up in the knowledge base once and hands out one
shared `Item` per distinct attribute tuple. A cohort's items are
therefore as many as its distinct codes, not its deliveries, and
sorting and interning them downstream costs no per-event key.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_not
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import UnknownCode
from .ingest import DeliveryColumns, DiseaseFact, RawDatabase
from .knowledge import KnowledgeBase, Taxonomy
from .model import NEGATIVE, POSITIVE, EventSequence, Item

if TYPE_CHECKING:  # pragma: no cover
    from .query import MiningTask

#: Turns a delivery code into a reified item, or None to drop the event.
EventMapping = Callable[[str], Optional[Item]]


@dataclass(frozen=True)
class WindowSpec:
    """Half-open-free day window relative to the index date.

    A day d is inside iff index + lower_offset < d < index + upper_offset;
    both comparisons are strict. Offsets are non-positive: windows always
    end at or before the index date.
    """

    polarity: str
    lower_offset: int
    upper_offset: int

    def __post_init__(self) -> None:
        if self.polarity not in (POSITIVE, NEGATIVE):
            raise ValueError(f"polarity must be positive or negative, got {self.polarity!r}")
        if not self.lower_offset < self.upper_offset <= 0:
            raise ValueError(
                f"window offsets must satisfy lower < upper <= 0, "
                f"got ({self.lower_offset}, {self.upper_offset})"
            )

    def days(self, index_day: int) -> range:
        """The days inside the window for this index date, ends excluded.

        Days are integers, so membership in the range is the strict
        comparison on both ends.
        """
        return range(index_day + self.lower_offset + 1, index_day + self.upper_offset)


@dataclass(frozen=True)
class IndexEventRule:
    """First diagnosis whose code has an ancestor in the given set."""

    diagnosis_ancestors: frozenset[str]

    def __post_init__(self) -> None:
        codes = frozenset(code.strip().upper() for code in self.diagnosis_ancestors)
        if not codes:
            raise ValueError("index event rule needs at least one ancestor code")
        object.__setattr__(self, "diagnosis_ancestors", codes)


@dataclass(frozen=True)
class CasePair:
    """One patient's positive sequence and, when declared, negative sequence."""

    patient: str
    positive: EventSequence
    negative: EventSequence | None = None


@dataclass(frozen=True)
class CaseDatabase:
    """All case pairs, sorted by patient id, one pair per patient.

    Either every pair carries a negative sequence or none does; a pair
    whose negative window contained no events holds an empty sequence,
    which is different from having no negative window at all.
    """

    pairs: tuple[CasePair, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.pairs, key=lambda p: p.patient))
        seen = set()
        for pair in ordered:
            if pair.patient in seen:
                raise ValueError(f"duplicate case pair for patient {pair.patient}")
            seen.add(pair.patient)
        shapes = {pair.negative is not None for pair in ordered}
        if len(shapes) > 1:
            raise ValueError("negative sequences must be present for all patients or none")
        object.__setattr__(self, "pairs", ordered)

    @property
    def has_negatives(self) -> bool:
        return bool(self.pairs) and self.pairs[0].negative is not None

    def patients(self) -> tuple[str, ...]:
        return tuple(pair.patient for pair in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def find_index_event(
    diseases: Iterable[DiseaseFact], rule: IndexEventRule, taxonomy: Taxonomy
) -> int | None:
    """Earliest day with a qualifying diagnosis; None when none qualifies.

    Order-insensitive: only the minimum day matters, ties collapse.
    """
    return _index_day(((fact.day, fact.icd) for fact in diseases), rule, taxonomy)


def _index_day(
    diagnoses: Iterable[tuple[int, str]], rule: IndexEventRule, taxonomy: Taxonomy
) -> int | None:
    """`find_index_event` over (day, code) pairs."""
    best: int | None = None
    for day, icd in diagnoses:
        if best is not None and day >= best:
            continue
        if taxonomy.ancestors(icd) & rule.diagnosis_ancestors:
            best = day
    return best


_NO_DELIVERIES = DeliveryColumns((), (), ())


def build_case_pair(
    patient: str,
    deliveries: DeliveryColumns,
    index_day: int,
    event_mapping: EventMapping,
    windows: tuple[WindowSpec, WindowSpec | None],
) -> CasePair:
    """Reify one patient's in-window deliveries into their case pair.

    `deliveries` holds the patient's delivery columns sorted by day, as
    `RawDatabase.delivery_groups` does. The event mapping encapsulates
    the class filter, attribute projection, and the unknown-code policy.

    Each window's deliveries are one slice of the columns, found by
    bisection on the days. A day inside both windows counts as positive,
    so no delivery lands in both sequences. The slices are mapped in day
    order, so under the abort policy the unknown code raised is the
    earliest one inside a window.
    """
    positive_window, negative_window = windows
    pos_days = positive_window.days(index_day)
    pos_events: list[tuple[int, Item]] = []
    neg_events: list[tuple[int, Item]] = []
    spans = [(pos_days, pos_events)]
    if negative_window is not None:
        neg_days = negative_window.days(index_day)
        # The control window minus the positive one: the days before it
        # and the days after it, either possibly empty.
        spans.append((range(neg_days.start, min(neg_days.stop, pos_days.start)), neg_events))
        spans.append((range(max(neg_days.start, pos_days.stop), neg_days.stop), neg_events))
        spans.sort(key=lambda span: span[0].start)
    days, codes = deliveries.days, deliveries.codes
    for span, events in spans:
        lo = bisect_left(days, span.start)
        hi = bisect_left(days, span.stop, lo)
        if lo < hi:
            items = list(map(event_mapping, codes[lo:hi]))
            events += compress(zip(days[lo:hi], items), map(is_not, items, repeat(None)))
    positive = EventSequence((patient, POSITIVE), tuple(pos_events))
    negative = None
    if negative_window is not None:
        negative = EventSequence((patient, NEGATIVE), tuple(neg_events))
    return CasePair(patient, positive, negative)


def make_event_mapping(
    kb: KnowledgeBase,
    class_filter: frozenset[str] | None,
    schema: tuple[str, ...],
    unknown_code: str = "abort",
) -> EventMapping:
    """Compose classification, projection, and the unknown-code policy.

    The mapping returns None for a code whose class is outside
    `class_filter` (None accepts every class) and for an unknown code
    under `skip`; an unknown code under `abort` raises UnknownCode.

    Each call builds the task's code table: a code is looked up in the
    knowledge base the first time it is seen and its result, item or
    None, is remembered. Codes projecting to the same attribute tuple
    share one Item. An unknown code under `abort` is never remembered,
    so it raises every time it is seen.
    """
    if unknown_code not in ("abort", "skip"):
        raise ValueError(f"unknown_code must be abort or skip, got {unknown_code!r}")
    by_values: dict[tuple, Item] = {}

    def lookup(cip: str) -> Item | None:
        try:
            attrs = kb.attributes.attributes(cip)
        except UnknownCode:
            if unknown_code == "abort":
                raise
            return None
        if class_filter is not None and attrs.atc not in class_filter:
            return None
        values = tuple(getattr(attrs, name) for name in schema)
        return by_values.setdefault(values, Item(values))

    return _CodeTable(lookup).__getitem__


class _CodeTable(dict):
    """Delivery code to item or None, each code looked up on first use.

    A lookup that raises stores nothing. Its `__getitem__` is the event
    mapping, so a code seen before costs one dict lookup and no Python
    call.
    """

    def __init__(self, lookup: EventMapping) -> None:
        super().__init__()
        self._lookup = lookup

    def __missing__(self, cip: str) -> Item | None:
        item = self[cip] = self._lookup(cip)
        return item


def build_database(
    raw: RawDatabase,
    task: "MiningTask",
    kb: KnowledgeBase,
    unknown_code: str = "abort",
) -> CaseDatabase:
    """One case pair per patient having an index event, sorted by patient.

    Patients with no qualifying diagnosis are dropped entirely; patients
    whose windows contain no matching deliveries keep their (empty)
    pair.
    """
    mapping = make_event_mapping(kb, task.class_filter, task.schema, unknown_code)
    windows = (task.positive_window, task.negative_window)
    deliveries = raw.delivery_groups
    pairs = []
    for patient, diagnoses in raw.disease_groups.items():
        index_day = _index_day(
            zip(diagnoses.days, diagnoses.codes), task.index_rule, kb.taxonomy
        )
        if index_day is None:
            continue
        pairs.append(
            build_case_pair(
                patient, deliveries.get(patient, _NO_DELIVERIES), index_day, mapping, windows
            )
        )
    return CaseDatabase(tuple(pairs))

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

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import UnknownCode
from .ingest import DeliveryFact, DiseaseFact, RawDatabase
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
    best: int | None = None
    for fact in diseases:
        if best is not None and fact.day >= best:
            continue
        if taxonomy.ancestors(fact.icd) & rule.diagnosis_ancestors:
            best = fact.day
    return best


def build_case_pair(
    patient: str,
    deliveries: Iterable[DeliveryFact],
    index_day: int,
    event_mapping: EventMapping,
    windows: tuple[WindowSpec, WindowSpec | None],
) -> CasePair:
    """Reify one patient's in-window deliveries into their case pair.

    The event mapping encapsulates the class filter, attribute
    projection, and the unknown-code policy. Windows are disjoint by
    construction, so no delivery can land in both sequences.
    """
    positive_window, negative_window = windows
    pos_days = positive_window.days(index_day)
    neg_days = range(0) if negative_window is None else negative_window.days(index_day)
    pos_events: list[tuple[int, Item]] = []
    neg_events: list[tuple[int, Item]] = []
    for fact in deliveries:
        day = fact.day
        if day in pos_days:
            events = pos_events
        elif day in neg_days:
            events = neg_events
        else:
            continue
        item = event_mapping(fact.cip)
        if item is not None:
            events.append((day, item))
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
    by_code: dict[str, Item | None] = {}
    by_values: dict[tuple, Item] = {}

    def mapping(cip: str) -> Item | None:
        if cip in by_code:
            return by_code[cip]
        item = None
        try:
            attrs = kb.attributes.attributes(cip)
        except UnknownCode:
            if unknown_code == "abort":
                raise
        else:
            if class_filter is None or attrs.atc in class_filter:
                values = tuple(getattr(attrs, name) for name in schema)
                item = by_values.setdefault(values, Item(values))
        by_code[cip] = item
        return item

    return mapping


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
    diseases_by_patient: dict[str, list[DiseaseFact]] = {}
    for fact in raw.diseases:
        diseases_by_patient.setdefault(fact.patient, []).append(fact)
    # RawDatabase keeps deliveries sorted by patient, so each patient's
    # facts are one run.
    deliveries_by_patient = {
        patient: tuple(facts) for patient, facts in groupby(raw.deliveries, itemgetter(0))
    }

    mapping = make_event_mapping(kb, task.class_filter, task.schema, unknown_code)
    windows = (task.positive_window, task.negative_window)
    pairs = []
    for patient in sorted(diseases_by_patient):
        index_day = find_index_event(diseases_by_patient[patient], task.index_rule, kb.taxonomy)
        if index_day is None:
            continue
        pairs.append(
            build_case_pair(
                patient, deliveries_by_patient.get(patient, ()), index_day, mapping, windows
            )
        )
    return CaseDatabase(tuple(pairs))

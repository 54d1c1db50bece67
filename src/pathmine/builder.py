"""Case-crossover sequence construction.

Turns raw facts into one pair of event sequences per patient: deliveries
in the at-risk window before the patient's index event (positive) and in
the earlier control window (negative). The patient serves as their own
control. Window bounds are strict on both ends, so with the usual
offsets a delivery exactly 90 days before the index date lands in
neither sequence.

Reification goes through the task's code table (`CodeTable`), built from
the knowledge base before any delivery is read: each code that passes
the class filter maps to the id of its item, one item per distinct
projected attribute tuple, with ids in ascending `Item.sort_key` order.
Each window then becomes one sorted tuple of keys `day * K + id` (K
items), which sort as (day, id) pairs do, in one C-level sort; a key's
id is `key % K` and its day `key // K`. No object is made per event:
`CaseDatabase` holds these tuples, the engine reads their ids through
`CaseDatabase.ids`, and `CaseDatabase.pairs` holds `EventSequence`
views of them, built on demand.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, repeat
from operator import add, attrgetter, is_not, mod, mul
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import UnknownCode
from .ingest import DayCodes, RawDatabase
from .knowledge import KnowledgeBase, Taxonomy, normalize_code
from .model import EventSequence, Item

if TYPE_CHECKING:  # pragma: no cover
    from .query import MiningTask

@dataclass(frozen=True)
class WindowSpec:
    """Half-open-free day window relative to the index date.

    A day d is inside iff index + lower_offset < d < index + upper_offset;
    both comparisons are strict. Offsets are non-positive: windows always
    end at or before the index date. Whether a window is the positive or
    the negative one is named by the task field that holds it.
    """

    lower_offset: int
    upper_offset: int

    def __post_init__(self) -> None:
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
        codes = frozenset(map(normalize_code, self.diagnosis_ancestors))
        if not codes:
            raise ValueError("index event rule needs at least one ancestor code")
        object.__setattr__(self, "diagnosis_ancestors", codes)

    def qualifier(self, taxonomy: Taxonomy) -> Callable[[str], bool]:
        """Whether a diagnosis code has an ancestor in the set; each code is looked up once."""
        ancestors = self.diagnosis_ancestors

        @lru_cache(maxsize=None)
        def qualifies(icd: str) -> bool:
            return not ancestors.isdisjoint(taxonomy.ancestors(icd))

        return qualifies


@dataclass(frozen=True)
class CasePair:
    """One patient's positive sequence and, when declared, negative sequence."""

    patient: str
    positive: EventSequence
    negative: EventSequence | None = None


class CaseDatabase:
    """All case pairs, sorted by patient id, one pair per patient, interned.

    `items` is the item table in ascending `Item.sort_key` order, and an
    item's id is its position in it. Entry k of `positives` is the k-th
    patient's positive sequence as sorted keys `day * K + id`, K being
    `len(items)`: keys sort as (day, id) pairs do, `key % K` is the id
    and `key // K` the day. `negatives` holds the negative sequences the
    same way, or is None when there is no negative window. Either every
    pair carries a negative sequence or none does; a pair whose negative
    window contained no events holds an empty sequence, which is
    different from having no negative window.

    `CaseDatabase(pairs)` interns hand-built pairs, giving equal items
    one id; `build_database` hands over its tuples as they are. `pairs`
    is a view of `CasePair`s holding item `EventSequence`s, built on
    first access; each pair's patient and slot say whose sequence it is
    and from which window.
    """

    def __init__(self, pairs: Iterable[CasePair] = ()) -> None:
        ordered = sorted(pairs, key=attrgetter("patient"))
        patients = tuple(pair.patient for pair in ordered)
        for left, right in zip(patients, patients[1:]):
            if left == right:
                raise ValueError(f"duplicate case pair for patient {left}")
        shapes = {pair.negative is not None for pair in ordered}
        if len(shapes) > 1:
            raise ValueError("negative sequences must be present for all patients or none")
        negatives = [pair.negative for pair in ordered] if True in shapes else []
        sequences = [pair.positive for pair in ordered] + negatives
        items = sorted({item for seq in sequences for _, item in seq}, key=Item.sort_key)
        id_of = {item: iid for iid, item in enumerate(items)}
        # Events are sorted by (day, sort key), so the keys come out sorted.
        scale = len(items)
        keys = tuple(tuple(day * scale + id_of[item] for day, item in seq) for seq in sequences)
        count = len(patients)
        self._patients, self.items, self.positives = patients, tuple(items), keys[:count]
        self.negatives = keys[count:] if True in shapes else None

    @classmethod
    def _interned(cls, patients, items, positives, negatives) -> "CaseDatabase":
        """A database over sequences already interned."""
        database = cls.__new__(cls)
        database._patients, database.items = patients, items
        database.positives, database.negatives = positives, negatives
        return database

    @cached_property
    def pairs(self) -> tuple[CasePair, ...]:
        items, scale = self.items, repeat(len(self.items))

        def views(sequences: tuple) -> list[EventSequence]:
            return [
                EventSequence(tuple((day, items[iid]) for day, iid in map(divmod, keys, scale)))
                for keys in sequences
            ]

        positives = views(self.positives)
        negatives = repeat(None) if self.negatives is None else views(self.negatives)
        return tuple(map(CasePair, self._patients, positives, negatives))

    def ids(self, sequences: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
        """`positives` or `negatives` as item ids, each sequence in order."""
        scale = repeat(len(self.items))
        return [tuple(map(mod, keys, scale)) for keys in sequences]

    @property
    def has_negatives(self) -> bool:
        return bool(self.negatives)

    def patients(self) -> tuple[str, ...]:
        return self._patients

    def __len__(self) -> int:
        return len(self._patients)

    def __iter__(self):
        return iter(self.pairs)


def find_index_event(diagnoses: DayCodes, qualifies: Callable[[str], bool]) -> int | None:
    """Earliest day with a qualifying diagnosis; None when none qualifies.

    `diagnoses` are one patient's, sorted by day as in
    `RawDatabase.disease_groups`, so the first qualifying day is the
    earliest and same-day ties collapse. `qualifies` is the rule's
    `IndexEventRule.qualifier`.
    """
    return next(compress(diagnoses.days, map(qualifies, diagnoses.codes)), None)


class CodeTable(dict):
    """The task's code table: delivery code to item id, or None to drop the event.

    Built before any delivery is read. Every code of the knowledge base
    is looked up once and projected onto `schema`; codes whose class is
    outside `class_filter` (None accepts every class) map to None, and
    codes projecting to the same attribute tuple share one item. `items`
    lists the items in ascending `Item.sort_key` order, and an id is a
    position in it.

    A delivery code missing from the table is looked up on first sight:
    an unknown code maps to None under `skip` and raises UnknownCode
    under `abort`. A lookup that raises stores nothing, so an unknown
    code raises every time it is seen.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        class_filter: frozenset[str] | None,
        schema: tuple[str, ...],
        unknown_code: str = "abort",
    ) -> None:
        if unknown_code not in ("abort", "skip"):
            raise ValueError(f"unknown_code must be abort or skip, got {unknown_code!r}")
        super().__init__()

        def project(cip: str) -> tuple | None:
            attrs = kb.attributes.attributes(cip)
            if class_filter is not None and attrs.atc not in class_filter:
                return None
            return tuple(getattr(attrs, name) for name in schema)

        self._project = project
        self._skip = unknown_code == "skip"
        projected = {code: project(code) for code in kb.attributes.codes()}
        self.items = tuple(sorted(map(Item, set(projected.values()) - {None}), key=Item.sort_key))
        # A dropped code projects to None, and None is its id.
        self._ids = {None: None, **{item.values: iid for iid, item in enumerate(self.items)}}
        self.update(zip(projected, map(self._ids.__getitem__, projected.values())))

    def __missing__(self, cip: str) -> int | None:
        try:
            iid = self[cip] = self._ids[self._project(cip)]
        except UnknownCode:
            if not self._skip:
                raise
            iid = self[cip] = None
        return iid


_NO_DELIVERIES = DayCodes((), ())


def _spans(positive: WindowSpec, negative: WindowSpec | None) -> list[tuple[int, int, int]]:
    """The windows' days as (start, stop, polarity) offsets from the index day.

    Polarity 0 is positive and 1 negative. The spans are disjoint,
    non-empty and in day order. A day inside both windows counts as
    positive, so no delivery lands in both sequences.
    """
    pos = positive.days(0)
    spans = [(pos.start, pos.stop, 0)]
    if negative is not None:
        neg = negative.days(0)
        # The control window minus the positive one: the days before it
        # and the days after it.
        spans = [
            (neg.start, min(neg.stop, pos.start), 1),
            spans[0],
            (max(neg.start, pos.stop), neg.stop, 1),
        ]
    return [span for span in spans if span[0] < span[1]]


def _sequences(
    deliveries: DayCodes, index_day: int, spans: list[tuple[int, int, int]], table: CodeTable
) -> list[tuple[int, ...]]:
    """One patient's positive keys, then negative keys, each sorted.

    A key is `day * K + id`, K being `len(table.items)`, so the keys
    sort as (day, id) pairs do, in one C-level sort. The spans are
    mapped in day order, so under the abort policy the unknown code
    raised is the earliest one inside a window.
    """
    days, codes = deliveries.days, deliveries.codes
    keys: tuple[list[int], list[int]] = ([], [])
    scale = repeat(len(table.items))
    for start, stop, polarity in spans:
        lo = bisect_left(days, index_day + start)
        hi = bisect_left(days, index_day + stop, lo)
        ids = list(map(table.__getitem__, codes[lo:hi]))
        offsets = map(mul, days[lo:hi], scale)
        if None in ids:
            kept = list(map(is_not, ids, repeat(None)))
            offsets, ids = compress(offsets, kept), compress(ids, kept)
        keys[polarity].extend(map(add, offsets, ids))
    return [tuple(sorted(polarity_keys)) for polarity_keys in keys]


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
    table = CodeTable(kb, task.class_filter, task.schema, unknown_code)
    spans = _spans(task.positive_window, task.negative_window)
    deliveries = raw.delivery_groups
    qualifies = task.index_rule.qualifier(kb.taxonomy)
    rows = []
    for patient, diagnoses in raw.disease_groups.items():
        index_day = find_index_event(diagnoses, qualifies)
        if index_day is None:
            continue
        columns = deliveries.get(patient, _NO_DELIVERIES)
        rows.append((patient, *_sequences(columns, index_day, spans, table)))
    # Disease groups come in ascending patient order, so the rows do too.
    patients, positives, negatives = zip(*rows) if rows else ((),) * 3
    if task.negative_window is None:
        negatives = None
    return CaseDatabase._interned(patients, table.items, positives, negatives)

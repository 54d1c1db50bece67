"""Core domain model: items, timestamped sequences, patterns, embeddings.

A pattern is an ordered list of items. It is matched inside a sequence by
an *embedding*: a strictly increasing list of 1-based positions whose
items equal the pattern items position by position. Matching is over list
positions, not timestamps, so two events sharing a day can both be
consumed by consecutive pattern positions.

All types here are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Mapping, Sequence, Union

AttributeValue = Union[str, int]

#: Strictly increasing 1-based positions witnessing a pattern in a sequence.
Embedding = tuple[int, ...]


def _value_key(value: AttributeValue) -> tuple:
    # Total order over mixed str/int attribute values.
    if isinstance(value, int):
        return (0, value, "")
    return (1, 0, value)


@dataclass(frozen=True)
class Item:
    """One reified event: a fixed-order tuple of attribute values.

    Every item inside one mining task shares the same attribute schema
    (names and order); the schema itself lives on the task. Equality is
    exact tuple equality over all attribute values.

    The sort key is computed once, on construction. The builder makes
    one item per distinct attribute tuple and numbers the items in sort
    key order, so the search compares ids, never items.
    """

    values: tuple[AttributeValue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("an item needs at least one attribute value")
        for value in self.values:
            if not isinstance(value, (str, int)):
                raise ValueError(f"attribute values must be str or int, got {value!r}")
        object.__setattr__(self, "_key", tuple(_value_key(v) for v in self.values))

    def sort_key(self) -> tuple:
        return self._key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ",".join(str(v) for v in self.values)
        return f"Item({inner})"


@dataclass(frozen=True)
class EventSequence:
    """Canonically sorted, timestamped item list for one window of one patient.

    Events are sorted by (timestamp, item attribute tuple) on
    construction, so embeddings are deterministic regardless of input
    order. Timestamps are non-negative day numbers.

    This is the item form of a sequence, for hand-built databases, the
    reference oracle and callers that want items. The builder and the
    engine never make one: `CaseDatabase` keeps each sequence as a tuple
    of item ids and a parallel tuple of days, and its `pairs` builds
    these views on demand. The sequence does not know whose it is or
    which window: a `CasePair` names both by the slot that holds it.
    """

    events: tuple[tuple[int, Item], ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda ev: (ev[0], ev[1]._key)))
        # Sorted by day first, so the first event has the smallest day.
        if ordered and ordered[0][0] < 0:
            raise ValueError(f"negative day {ordered[0][0]} in a sequence")
        object.__setattr__(self, "events", ordered)

    def items(self) -> tuple[Item, ...]:
        return tuple(map(itemgetter(1), self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[tuple[int, Item]]:
        return iter(self.events)


@dataclass(frozen=True)
class Pattern:
    """Ordered item list sought as a subsequence; empty only as search root."""

    items: tuple[Item, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def sort_key(self) -> tuple:
        """Canonical output order: by length, then lexicographic item order."""
        return (len(self.items), tuple(it.sort_key() for it in self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Pattern<" + ", ".join(repr(it) for it in self.items) + ">"


@dataclass(frozen=True)
class PatternTuple:
    """One mining result: a pattern, its support set, and its embeddings.

    A plain record, stored as given. Its makers, the engine's
    `MiningResult.patterns` and the oracle, keep it consistent: `supported` is exactly the set of keys
    of `embeddings`, each holding a non-empty frozenset of embeddings,
    and `discriminative`, when present, is the subset of supporters
    whose paired negative sequence does not support the pattern.
    """

    pattern: Pattern
    supported: frozenset[str]
    embeddings: Mapping[str, frozenset[Embedding]]
    discriminative: frozenset[str] | None = None


def find_embeddings(pattern: Pattern, sequence: EventSequence) -> frozenset[Embedding]:
    """Every strictly increasing 1-based position list witnessing `pattern`.

    The empty pattern has exactly one witness, the empty embedding.
    """
    return frozenset(iter_embeddings(pattern.items, sequence.items()))


def iter_embeddings(wanted: Sequence, haystack: Sequence) -> Iterator[Embedding]:
    """Lazily yield the embeddings of `wanted` in `haystack`, leftmost first.

    Works on any sequences whose elements compare with ==, such as items
    or interned item ids. The depth-first walk keeps its choices on an
    explicit stack, so pattern length is not bounded by recursion. Each
    depth stops at its position in the rightmost embedding, matched
    greedily from the right: any position up to it lets the rest of the
    pattern match, so every partial match completes, and the work
    between two embeddings is bounded by pattern times haystack length.
    """
    need = len(wanted)
    total = len(haystack)
    if not need:
        yield ()
        return
    # stops[d] is one past the 0-based position of wanted[d] in the
    # rightmost embedding; backward[i] is haystack[total - 1 - i].
    backward = haystack[::-1]
    stops = [0] * need
    stop = total + 1
    for depth in range(need - 1, -1, -1):
        try:
            stop = total - backward.index(wanted[depth], total - stop + 1)
        except ValueError:
            return
        stops[depth] = stop
    chosen: list[int] = []  # 1-based positions of the pattern prefix
    start = 0  # 0-based position where the next item's search begins
    while True:
        depth = len(chosen)
        try:
            pos = haystack.index(wanted[depth], start, stops[depth])
        except ValueError:
            if not chosen:
                return
            start = chosen.pop()
            continue
        start = pos + 1
        if depth + 1 == need:
            yield tuple(chosen) + (start,)
        else:
            chosen.append(start)

"""Depth-first constraint-aware pattern search over a case database.

The search grows patterns one item at a time, PrefixSpan style: each
node keeps, per supporting positive sequence, the position of the
leftmost embedding's tail. Extension candidates are exactly the items
occurring after those tails, so the enumeration is complete.

Candidates are generated in two phases. Each positive sequence is
indexed once by the last occurrence of each distinct item, so a
supporter's candidates are the tail of that order whose last position
is at or after its frontier: one bisection finds it, and one C-level
count over all tails gives every candidate's support. Only the items
that clear the support bound and stay inside every switch interval are
then located, each at its first position after the frontier, so the cost of
the many infrequent candidates stops at the count.

The chain of tails along the search path is itself the leftmost
embedding (PrefixSpan's pseudo-projection), so each node carries it and
witness mode reads every supporter's witness off the search path
instead of searching for it again. The negative frontier is carried
down the path like the positive one: where the greedy leftmost match
of the prefix ends in each supporter's own negative sequence, so a
child's discriminative check is one hop per supporter from its
parent's frontier, not a rescan of the whole prefix. A node whose
candidates all fall below the support bound stops right after the
count. The depth-first walk keeps an explicit stack, and the frontier
is filled in by a loop up the path, so no sequence is too long to mine.

Each kind of constraint steers the search its own way:

* prunable-bound violations (positive support below the threshold, a
  switch count already past an upper bound) kill the whole subtree;
* monotone constraints and switch equality gate emission;
* the discriminative filter (enough supporters whose own negative
  sequence lacks the pattern) is checked last and lazily, since
  negative matching is the expensive part and prunes nothing.

`_Prepared` resolves each switch bound once, to the interval of counts
it admits: a count past the interval's top is an overshoot, and
`_emittable` is the one test for emission. Together they are the
engine's one statement of these rules; the reference definitions they
are tested against live in `pathmine.oracle`.

One searcher walks the roots in canonical item order under one
node/time budget, and results are canonically sorted by (length, item
order), so repeated runs serialize identically. A budget cuts the walk
short, so a budgeted run returns the patterns of a depth-first prefix of
the full search; under a node budget that prefix is the same every run.

Each emitted pattern is kept as one compact `PatternRecord` of ids and
database indices that shares the node's lists; no item, patient id or
set is looked up or built per pattern. All mode still enumerates and
charges every embedding during the search but keeps none, so the
search's memory does not grow with the number of embeddings; readers
enumerate them again, one supporter at a time. `MiningResult.patterns`
turns the records into `PatternTuple`s on first access.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .builder import CaseDatabase
from .errors import MissingNegativeWindow
from .model import Embedding, Item, Pattern, PatternTuple, iter_embeddings
from .query import MiningTask

EMBEDDINGS_ALL = "all"
EMBEDDINGS_WITNESS = "witness"

#: Embeddings enumerated in all mode per unit of the node budget.
_DEADLINE_STRIDE = 1024

#: The search's counters, as MiningResult.counters names them.
_COUNTERS = ("support_pruned", "switch_pruned", "negative_checks")


@dataclass(frozen=True)
class MiningOptions:
    embeddings: str = EMBEDDINGS_ALL
    max_len: int | None = None
    prune: bool = True
    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.embeddings not in (EMBEDDINGS_ALL, EMBEDDINGS_WITNESS):
            raise ValueError(f"embeddings mode must be all or witness, got {self.embeddings!r}")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {self.max_nodes}")
        # A nan deadline would compare False forever; no limit is None, not inf.
        if self.max_seconds is not None and not (
            math.isfinite(self.max_seconds) and self.max_seconds >= 0
        ):
            raise ValueError(f"max_seconds must be finite and >= 0, got {self.max_seconds}")


class PatternRecord(NamedTuple):
    """One emitted pattern, as item ids and database indices.

    `seqs` are the supporters' indices in the database, ascending, which
    is ascending patient order. `witnesses` holds each supporter's
    leftmost embedding in witness mode and is None in all mode, where
    the embeddings are enumerated again on demand. `discriminative`
    lists the supporters whose negative sequence lacks the pattern, or
    is None when the task is not discriminative.
    """

    prefix: tuple[int, ...]
    seqs: list[int]
    witnesses: list[Embedding] | None
    discriminative: list[int] | None


@dataclass(frozen=True)
class MiningResult:
    """Sorted pattern records plus an explicit completeness flag.

    `records` are in canonical output order, by (length, item order).
    `items`, `patients` and `sequences` map a record's ids back: item
    ids to items, database indices to patient ids and to positive
    sequences of item ids. `patterns` is the same result as
    `PatternTuple`s, built on first access; the CLI writes from the
    records and never builds it.

    `complete` is False when a node or time budget ran out; the patterns
    found so far are still returned, never silently truncated.

    `counters` holds plain ints on why the search did what it did:
    `support_pruned` candidates dropped by the support bound,
    `switch_pruned` candidates dropped by an overshot switch bound, and
    `negative_checks` one per supporter of each node whose
    discriminative check ran.
    """

    records: tuple[PatternRecord, ...]
    complete: bool
    nodes_expanded: int
    elapsed_seconds: float
    counters: dict[str, int]
    items: tuple[Item, ...] = field(repr=False, compare=False)
    patients: tuple[str, ...] = field(repr=False, compare=False)
    sequences: Sequence[tuple[int, ...]] = field(repr=False, compare=False)

    def embeddings(self, record: PatternRecord) -> Iterator[Iterable[Embedding]]:
        """Each supporter's embeddings of the record, in ascending order.

        All mode enumerates them lazily, one supporter at a time.
        """
        if record.witnesses is not None:
            return zip(record.witnesses)
        return (iter_embeddings(record.prefix, self.sequences[s]) for s in record.seqs)

    @cached_property
    def patterns(self) -> tuple[PatternTuple, ...]:
        items, patient = self.items, self.patients.__getitem__
        return tuple(
            PatternTuple(
                Pattern(tuple(map(items.__getitem__, record.prefix))),
                frozenset(map(patient, record.seqs)),
                {
                    patient(s): frozenset(found)
                    for s, found in zip(record.seqs, self.embeddings(record))
                },
                None
                if record.discriminative is None
                else frozenset(map(patient, record.discriminative)),
            )
            for record in self.records
        )


def _emittable(
    support: int,
    switch_counts: Sequence[int],
    contains_flags: Sequence[bool],
    prep: "_Prepared",
    discr_count: Callable[[], int],
) -> bool:
    """The engine's one definition of when a node's pattern is emitted.

    The support bound, every contains constraint and every switch
    interval must hold. The discriminative count is only requested when
    everything else already passed.
    """
    return (
        support >= prep.min_support
        and all(contains_flags)
        and all(lo <= count <= hi for count, (lo, hi) in zip(switch_counts, prep.switch_bounds))
        and not (prep.discriminative and discr_count() < prep.min_support)
    )


class _Prepared:
    """The database's sequences as item ids, with a last-occurrence index.

    The database's ids follow canonical item order, so ascending id
    order is ascending output order and no per-candidate key
    computation happens in the search loop.

    For each positive sequence, `order` lists its distinct item ids by
    ascending last occurrence and `lasts` the matching last positions.
    The items occurring at or after a start are exactly the tail of
    `order` from `bisect_left(lasts, start)`: `count` counts them for a
    set of supporters at once, and `locate` finds the first position of
    only the items still wanted.

    It also holds what the search reads of the task at every node: the
    support threshold, whether the task is discriminative, and each
    switch constraint's closed interval of admitted counts, `(lo, hi)`.
    Counts never decrease under extension, so a count above `hi` is
    final and the whole subtree can go.
    """

    __slots__ = (
        "pos_ids",
        "order",
        "lasts",
        "neg_ids",
        "min_support",
        "discriminative",
        "switch_bounds",
        "switch_values",
        "contains_ids",
        "max_len",
    )

    def __init__(self, task: MiningTask, database: CaseDatabase, options: MiningOptions) -> None:
        self.pos_ids = database.ids(database.positives)
        self.neg_ids = None
        if database.negatives is not None:
            self.neg_ids = database.ids(database.negatives)
        self.order = []
        self.lasts = []
        for seq in self.pos_ids:
            # Each distinct item's last position, ascending; the item at it.
            lasts = sorted(dict(zip(seq, range(len(seq)))).values())
            self.order.append(tuple(map(seq.__getitem__, lasts)))
            self.lasts.append(tuple(lasts))
        self.min_support = task.min_support
        self.discriminative = task.discriminative
        self.switch_bounds = [
            {"==": (c.value, c.value), "<=": (0, c.value), ">=": (c.value, math.inf)}[c.comparator]
            for c in task.switches
        ]
        # Each constraint resolves its attribute once, to a column of that
        # attribute's value per item id.
        def column(attribute: str) -> list:
            at = task.schema.index(attribute)
            return [item.values[at] for item in database.items]

        self.switch_values = [column(c.attribute) for c in task.switches]
        self.contains_ids = [
            frozenset(i for i, value in enumerate(column(c.attribute)) if value == c.value)
            for c in task.contains
        ]
        if options.max_len is not None:
            self.max_len = options.max_len
        else:
            self.max_len = max((len(seq) for seq in self.pos_ids), default=0)

    def count(
        self, seqs: Sequence[int], starts: Sequence[int]
    ) -> tuple[Counter, list[tuple[int, ...]]]:
        """Each item's number of supporters holding it at or after their start.

        Also returns each supporter's tail: its items occurring there.
        """
        order = self.order
        lasts = self.lasts
        tails = [order[s][bisect_left(lasts[s], start) :] for s, start in zip(seqs, starts)]
        return Counter(chain.from_iterable(tails)), tails

    def locate(
        self,
        seqs: Sequence[int],
        starts: Sequence[int],
        tails: Sequence[tuple[int, ...]],
        wanted: dict[int, list[tuple[int, int]]],
    ) -> None:
        """Find where each supporter first holds each wanted item in its tail.

        Appends (supporter index, first position at or after the
        supporter's start) to wanted[iid], walking the supporters in
        order, so each list is in supporter order.
        """
        pos_ids = self.pos_ids
        for k, (seq_idx, start, tail) in enumerate(zip(seqs, starts, tails)):
            events = pos_ids[seq_idx]
            # The tail holds every item present from start on, so index never raises.
            for iid in wanted.keys() & tail:
                wanted[iid].append((k, events.index(iid, start)))


class _Node:
    """One pattern on the search path, with its supporters' leftmost embeddings.

    Entry k of the lists describes the k-th supporting positive
    sequence: its index in the database and its 1-based leftmost
    embedding, whose last position is the frontier that extensions
    search after. A child's embedding is its parent's plus one
    position, so the witness costs one tuple per supporter and is never
    searched for again.

    The negative frontier is carried down the path the same way: entry
    k of `negative` is the 0-based position just after the greedy
    leftmost match of the prefix in the k-th supporter's negative
    sequence, or None when that sequence lacks the prefix. Greedy
    leftmost matching is exact for containment, so a child's entry is
    one hop from its parent's. It is filled in only for the nodes whose
    discriminative check runs, and for the ancestors they need; `occs`
    maps each supporter here to its index in `parent`.
    """

    __slots__ = (
        "prefix",
        "seqs",
        "witnesses",
        "switch_counts",
        "contains_flags",
        "parent",
        "occs",
        "negative",
    )

    def __init__(
        self,
        prefix: tuple[int, ...],
        seqs: list[int],
        witnesses: list[Embedding],
        switch_counts: tuple[int, ...],
        contains_flags: tuple[bool, ...],
        parent: "_Node | None" = None,
        occs: list[tuple[int, int]] | None = None,
        negative: list[int | None] | None = None,
    ) -> None:
        self.prefix = prefix
        self.seqs = seqs
        self.witnesses = witnesses
        self.switch_counts = switch_counts
        self.contains_flags = contains_flags
        self.parent = parent
        self.occs = occs
        self.negative = negative


class _Searcher:
    """The depth-first search, under one node/time budget.

    Each search node costs one unit of the budget, and so does each
    `_DEADLINE_STRIDE` embeddings enumerated in all mode, so both budgets
    bound emission too. Once anything ran out, spend() stays False and
    the walk stops where it is.
    """

    def __init__(self, prep: _Prepared, options: MiningOptions) -> None:
        self.prep = prep
        self.options = options
        self.max_nodes = options.max_nodes
        self.deadline = (
            None if options.max_seconds is None else time.monotonic() + options.max_seconds
        )
        self.spent = 0
        self.exhausted = False
        self.found: list[PatternRecord] = []
        self.nodes = 0
        self.counters = dict.fromkeys(_COUNTERS, 0)

    def spend(self) -> bool:
        """Charge one unit; False once the node or time budget ran out."""
        if self.exhausted:
            return False
        self.spent += 1
        if self.max_nodes is not None and self.spent > self.max_nodes:
            self.exhausted = True
        elif self.deadline is not None and time.monotonic() > self.deadline:
            self.exhausted = True
        return not self.exhausted

    def run(self, origin: _Node) -> None:
        """Search each root's subtree in turn; roots are the origin's children.

        Depth-first, with an explicit stack of child iterators. Appends
        each emitted record to `found` in visit order.
        """
        stack: list[Iterator[_Node]] = [self.children(origin)]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            children = self._visit(node)
            if self.exhausted:
                return
            if children is not None:
                stack.append(children)

    def _visit(self, node: _Node) -> Iterator[_Node] | None:
        """Spend, test and emit one node; return its children to visit."""
        if not self.spend():
            return None
        self.nodes += 1
        prep = self.prep
        if self.options.prune and len(node.seqs) < prep.min_support:
            # Children were checked before they were made, so only a root
            # gets here, and only by the support bound: a root's switch
            # counts are 0, which no interval (never below 0) overshoots.
            self.counters["support_pruned"] += 1
            return None
        if _emittable(
            len(node.seqs),
            node.switch_counts,
            node.contains_flags,
            prep,
            partial(self._lacking, node),
        ):
            record = self._emit(node)
            if record is None:
                return None
            self.found.append(record)
        if len(node.prefix) >= prep.max_len:
            return None
        return self.children(node)

    def _lacking(self, node: _Node) -> int:
        """How many supporters' negative sequences lack the node's pattern."""
        self.counters["negative_checks"] += len(node.seqs)
        return self._negative_frontier(node).count(None)

    def _negative_frontier(self, node: _Node) -> list[int | None]:
        """The node's negative frontier, filled in for it and its ancestors.

        The walk goes up to the nearest ancestor that has a frontier and
        comes back down, in loops rather than recursion, so no path is too
        deep.
        """
        path = []
        while node.negative is None:
            path.append(node)
            node = node.parent
        frontier = node.negative
        neg_ids = self.prep.neg_ids
        for node in reversed(path):
            iid = node.prefix[-1]
            ahead: list[int | None] = []
            for (k, _), seq_idx in zip(node.occs, node.seqs):
                at = frontier[k]
                if at is not None:
                    negative = neg_ids[seq_idx]
                    # Most misses lack the item altogether; `in` finds that without raising.
                    if iid not in negative:
                        at = None
                    else:
                        try:
                            at = negative.index(iid, at) + 1
                        except ValueError:
                            at = None
                ahead.append(at)
            node.negative = frontier = ahead
        return frontier

    def children(self, node: _Node) -> Iterator[_Node]:
        """The node's children in ascending item order, minus those pruned up front.

        Every candidate is counted, and those that clear the support
        bound and the switch intervals are located, when this is called;
        only the nodes are built lazily, as the walk reaches them. The
        origin's children, the roots, are all located, so that each root
        is visited and tested like any other node.
        """
        prep = self.prep
        seqs = node.seqs
        if node.prefix:
            # A 1-based frontier is the 0-based position right after it.
            starts = [witness[-1] for witness in node.witnesses]
            last = node.prefix[-1]
        else:
            starts = [0] * len(seqs)
            last = None
        counts, tails = prep.count(seqs, starts)
        bounded = self.options.prune and last is not None
        if bounded:
            min_support = prep.min_support
            if max(counts.values(), default=0) < min_support:
                # A leaf: no candidate clears the bound, so none is looked at.
                self.counters["support_pruned"] += len(counts)
                return iter(())
            candidates = [iid for iid, supporters in counts.items() if supporters >= min_support]
            self.counters["support_pruned"] += len(counts) - len(candidates)
        else:
            candidates = list(counts)
        switched: dict[int, tuple[int, ...]] = {}
        for iid in candidates:
            switch_counts = tuple(
                count + (last is not None and values[last] != values[iid])
                for count, values in zip(node.switch_counts, prep.switch_values)
            )
            if bounded and any(
                count > hi for count, (_, hi) in zip(switch_counts, prep.switch_bounds)
            ):
                self.counters["switch_pruned"] += 1
                continue
            switched[iid] = switch_counts
        wanted: dict[int, list[tuple[int, int]]] = {iid: [] for iid in switched}
        if wanted:
            prep.locate(seqs, starts, tails, wanted)
        witnesses = node.witnesses
        flags = tuple(zip(node.contains_flags, prep.contains_ids))
        return (
            _Node(
                node.prefix + (iid,),
                [seqs[k] for k, _ in occs],
                [witnesses[k] + (pos + 1,) for k, pos in occs],
                switched[iid],
                tuple(flag or iid in sat for flag, sat in flags),
                node,
                occs,
            )
            for iid, occs in sorted(wanted.items())
        )

    def _emit(self, node: _Node) -> PatternRecord | None:
        """The node's compact record, or None if the budget ran out meanwhile.

        The record shares the node's prefix, supporter and witness
        lists. Witness mode keeps each supporter's leftmost embedding,
        read off the node. All mode enumerates the embeddings and charges
        them to the budget as it goes, since their number grows
        combinatorially, but keeps none of them: the record is kept
        exactly when its enumeration finished within the budget, and its
        readers enumerate again. The discriminative supporters are those
        whose negative frontier found no match.
        """
        prep = self.prep
        witnesses = node.witnesses
        if self.options.embeddings != EMBEDDINGS_WITNESS:
            witnesses = None
            embeddings = chain.from_iterable(
                iter_embeddings(node.prefix, prep.pos_ids[seq_idx]) for seq_idx in node.seqs
            )
            # One unit per full stride, counted across all supporters.
            while sum(1 for _ in islice(embeddings, _DEADLINE_STRIDE)) == _DEADLINE_STRIDE:
                if not self.spend():
                    return None
        discr = None
        if prep.discriminative:
            discr = [seq_idx for seq_idx, at in zip(node.seqs, node.negative) if at is None]
        return PatternRecord(node.prefix, node.seqs, witnesses, discr)


def mine(
    task: MiningTask, database: CaseDatabase, options: MiningOptions | None = None
) -> MiningResult:
    """Enumerate every pattern satisfying the task; sound and complete.

    The emitted set never depends on `prune`, which only trades work for
    time. Budgets may cut the search short, in which case the result is
    flagged incomplete and holds the patterns of a depth-first prefix of
    the full search.
    """
    options = options or MiningOptions()
    started = time.monotonic()
    if task.discriminative and len(database) and not database.has_negatives:
        raise MissingNegativeWindow(
            "the task is discriminative but the database has no negative sequences"
        )
    prep = _Prepared(task, database, options)
    searcher = _Searcher(prep, options)
    count = len(prep.pos_ids)
    searcher.run(
        _Node(
            (),
            list(range(count)),
            [()] * count,
            (0,) * len(prep.switch_bounds),
            (False,) * len(prep.contains_ids),
            negative=None if prep.neg_ids is None else [0] * count,
        )
    )
    found = searcher.found
    # Interned ids follow canonical item order, so this is Pattern.sort_key order.
    found.sort(key=lambda record: (len(record.prefix), record.prefix))
    return MiningResult(
        records=tuple(found),
        complete=not searcher.exhausted,
        nodes_expanded=searcher.nodes,
        elapsed_seconds=time.monotonic() - started,
        counters=searcher.counters,
        items=database.items,
        patients=database.patients(),
        sequences=prep.pos_ids,
    )

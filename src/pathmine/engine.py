"""Depth-first constraint-aware pattern search over a case database.

The search grows patterns one item at a time, PrefixSpan style: each
node keeps, per supporting positive sequence, the position of the
leftmost embedding's tail. Extension candidates are exactly the items
occurring after those tails, so the enumeration is complete.

Candidates are generated in two phases. Each positive sequence is
indexed once by the last occurrence of each distinct item, so a
supporter's candidates are the tail of that order whose last position
is at or after its frontier: one bisection finds it. Where the tails
are long, the node first asks whether it is a leaf. Each tail is also a
bit mask of item ids, and a bit-sliced count over the masks says
exactly whether any candidate clears the support bound, at a cost per
supporter rather than per tail item (SPAM's vertical bitmaps, Ayres et
al., KDD 2002, with O'Neil and Quass's bit-sliced arithmetic, SIGMOD
1997). Short tails, and long tails that are not a leaf's, get one
C-level count over all tails, which gives every candidate's support.
Only the items that clear the support bound and stay inside every
switch interval are then located, each at its first position after the
frontier, so the cost of the many infrequent candidates stops at the
count. The roots are located from each sequence's first positions.

The chain of tails along the search path is itself the leftmost
embedding (PrefixSpan's pseudo-projection), so each node carries it,
as position columns: one list per prefix item, whose entry k is the
k-th supporter's 1-based position of that item. The last column is the
frontier list the candidates are read after, and witness mode keeps a
node's columns as they are, so no supporter's witness is searched for
again or built as a tuple of its own. The discriminative check is the
case-crossover comparison as `oracle.supports` states it: the prefix
is matched greedily leftmost in each supporter's own negative sequence,
in time linear in that sequence whatever the prefix's length, and the
supporters it misses are the discriminative ones. It runs only at the
nodes that pass every other emission test, and nothing of it is
carried down the path. A node whose candidates all fall below the
support bound stops right after the leaf test or the count. The
depth-first walk keeps an explicit stack, so no sequence is too long to
mine.

A node carries no constraint state: its prefix, the tuple of item ids
it spells, is all any constraint reads. A contains constraint holds
when the prefix meets the ids carrying its value, and a switch
constraint's count is `_Prepared.switches`, the number of adjacent ids
in the prefix whose values differ. Each kind of constraint steers the
search its own way:

* prunable-bound violations (positive support below the threshold, a
  switch count already past an upper bound) kill the whole subtree,
  before the candidate becomes a node;
* monotone constraints and switch equality gate emission;
* the discriminative filter (enough supporters whose own negative
  sequence lacks the pattern) is checked last and lazily, since
  negative matching is the expensive part and prunes nothing.

`_Prepared` resolves each switch bound once, to the interval of counts
it admits: a count past the interval's top is an overshoot, and
`_emittable` is the one test for emission. With `switches` they are
the engine's one statement of these rules; the reference definitions
they are tested against live in `pathmine.oracle`.

One searcher walks the roots in canonical item order under one
node/time budget, and results are canonically sorted by (length, item
order), so repeated runs serialize identically. A budget cuts the walk
short, so a budgeted run returns the patterns of a depth-first prefix of
the full search; under a node budget that prefix is the same every run.

Each emitted pattern is kept as one compact `PatternRecord` of ids and
database indices that shares the node's lists; no item, patient id or
set is looked up or built per pattern. Its witnesses are the node's
columns, one reference per supporter and pattern item, and readers
transpose them into embeddings only when they ask. All mode still
enumerates and charges every embedding during the search but keeps
none, so the search's memory does not grow with the number of
embeddings; readers enumerate them again, one supporter at a time.
`MiningResult.patterns` turns the records into `PatternTuple`s on first
access.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, islice, zip_longest
from operator import or_
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

#: A bounded node whose supporters' tails hold at least this many items
#: on average is first tested as a leaf over its tails' bit masks.
#: Counting costs a step per tail item and the leaf test a few big-int
#: operations per supporter, but the test needs each sequence's suffix
#: masks, which are kept once built, and it is wasted on a node that is
#: no leaf. So short tails, such as 20-event windows' (about 10 items),
#: are only counted and never build masks.
_MASK_MEAN_TAIL = 32

#: Position columns: entry k of column j is the k-th supporter's 1-based
#: position of the pattern's item j.
Columns = tuple[Sequence[int], ...]

#: Each candidate's supporter indices and 1-based positions, in supporter order.
Located = dict[int, tuple[list[int], list[int]]]


@dataclass(frozen=True)
class MiningOptions:
    """How `mine` searches and what it keeps of each pattern.

    The library's default is all mode: every embedding of each pattern
    in each supporter, whose number can grow combinatorially with the
    sequence. `pathmine mine` defaults to witness mode, the leftmost
    embedding only. `max_nodes` and `max_seconds` bound all mode too:
    its enumeration never explores a partial match that cannot
    complete, so the budget is charged within bounded work. With no
    budget, all mode runs as long as its output is large.
    """

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
    is ascending patient order. In witness mode `witnesses` holds the
    supporters' leftmost embeddings as position columns, one list per
    prefix item: entry k of column j is supporter k's 1-based position
    of item j. It is None in all mode, where the embeddings are
    enumerated again on demand. `discriminative`
    lists the supporters whose negative sequence lacks the pattern, or
    is None when the task is not discriminative.
    """

    prefix: tuple[int, ...]
    seqs: list[int]
    witnesses: Columns | None
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
    counters: dict[str, int]
    items: tuple[Item, ...] = field(repr=False, compare=False)
    patients: tuple[str, ...] = field(repr=False, compare=False)
    sequences: Sequence[tuple[int, ...]] = field(repr=False, compare=False)

    def embeddings(self, record: PatternRecord) -> Iterator[Iterable[Embedding]]:
        """Each supporter's embeddings of the record, in ascending order.

        Witness mode transposes the record's columns into one leftmost
        embedding per supporter as it is drawn from. All mode enumerates
        them lazily, one supporter at a time.
        """
        if record.witnesses is not None:
            return zip(zip(*record.witnesses))
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


def _csa(a: int, b: int, c: int) -> tuple[int, int]:
    """A carry-save adder over bit masks: per bit, a + b + c == sum + 2 * carry."""
    half = a ^ b
    return half ^ c, (a & b) | (half & c)


def _frequent(masks: Iterable[int], min_support: int) -> tuple[int, int]:
    """The items held by at least min_support of the masks, and by any.

    Both are bit masks of item ids. The count is bit-sliced: slice b
    holds bit b of every item's count. Masks go in four at a time:
    carry-save adders fold them into slices 0 and 1, as in Harley and
    Seal's population count, and their carry of weight 4 ripples up the
    slices above with `^` and `&`. The union of the slices is the set of
    items counted at least once. A bound wider than the slices clears
    nothing.
    """
    ones = twos = 0
    slices = [0, 0]
    quads = iter(masks)
    for a, b, c, d in zip_longest(quads, quads, quads, quads, fillvalue=0):
        ones, ab = _csa(ones, a, b)
        ones, cd = _csa(ones, c, d)
        twos, carry = _csa(twos, ab, cd)
        level = 2
        while carry:
            if level == len(slices):
                slices.append(carry)
                break
            bits = slices[level]
            slices[level] = bits ^ carry
            carry &= bits
            level += 1
    slices[:2] = ones, twos
    present = reduce(or_, slices)
    if min_support.bit_length() > len(slices):
        return 0, present
    # From the top slice down: items whose count is already above the
    # bound, and items whose count matches it so far.
    above, equal = 0, present
    for level in reversed(range(len(slices))):
        bits = slices[level]
        if min_support >> level & 1:
            equal &= bits
        else:
            above |= equal & bits
            equal &= ~bits
    return above | equal, present


def _holds(prefix: tuple[int, ...], sequence: tuple[int, ...]) -> bool:
    """Whether the sequence contains the prefix, by greedy leftmost matching.

    Each `in` consumes the iterator up to the item's first occurrence
    after the previous item's, as `oracle.supports` scans, so a sequence
    is read at most once whatever the prefix's length.
    """
    rest = iter(sequence)
    for iid in prefix:
        if iid not in rest:
            return False
    return True


def _emittable(
    prefix: tuple[int, ...],
    support: int,
    prep: "_Prepared",
    discr_count: Callable[[], int],
) -> bool:
    """The engine's one definition of when a node's pattern is emitted.

    The support bound, every contains constraint and every switch
    interval must hold, each read off the prefix. The discriminative
    count is only requested when everything else already passed.
    """
    return (
        support >= prep.min_support
        and all(not sat.isdisjoint(prefix) for sat in prep.contains_ids)
        and all(
            lo <= count <= hi for count, (lo, hi) in zip(prep.switches(prefix), prep.switch_bounds)
        )
        and not (prep.discriminative and discr_count() < prep.min_support)
    )


class _Prepared:
    """The database's own id tuples, mined as they are, with a last-occurrence index.

    The database's ids follow canonical item order, so ascending id
    order is ascending output order and no per-candidate key
    computation happens in the search loop.

    For each positive sequence, `order` lists its distinct item ids by
    ascending last occurrence and `lasts` the matching last positions.
    The items occurring at or after a start are exactly the tail of
    `order` from `bisect_left(lasts, start)`: `tails` slices them for a
    set of supporters at once, and `locate` finds the first position of
    only the items still wanted. `masks` reads the same tails as bit
    masks of item ids, from each sequence's suffix masks, built on the
    sequence's first request: entry j is the OR of `1 << iid` over the
    last j items of `order`, so a tail's length selects its mask. `firsts` locates every item of
    every sequence from position 0, for the roots. Both give each
    located item two parallel lists, supporter indices and 1-based
    positions, which become a child's supporters and its last column.

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
        "suffix",
        "neg_ids",
        "min_support",
        "discriminative",
        "switch_bounds",
        "switch_values",
        "contains_ids",
    )

    def __init__(self, task: MiningTask, database: CaseDatabase) -> None:
        self.pos_ids, self.neg_ids = database.positives, database.negatives
        self.order = []
        self.lasts = []
        for seq in self.pos_ids:
            # Each distinct item's last position, ascending; the item at it.
            lasts = sorted(dict(zip(seq, range(len(seq)))).values())
            self.order.append(tuple(map(seq.__getitem__, lasts)))
            self.lasts.append(tuple(lasts))
        self.suffix: list[list[int] | None] = [None] * len(self.pos_ids)
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

    def switches(self, prefix: tuple[int, ...]) -> list[int]:
        """Each switch constraint's count: adjacent ids of the prefix whose values differ."""
        return [
            sum(values[left] != values[right] for left, right in zip(prefix, prefix[1:]))
            for values in self.switch_values
        ]

    def tails(self, seqs: Sequence[int], starts: Sequence[int]) -> list[tuple[int, ...]]:
        """Each supporter's items occurring at or after its start."""
        order = self.order
        lasts = self.lasts
        return [order[s][bisect_left(lasts[s], start) :] for s, start in zip(seqs, starts)]

    def masks(self, seqs: Sequence[int], tails: Sequence[tuple[int, ...]]) -> list[int]:
        """Each supporter's tail as a bit mask of item ids."""
        suffix = self.suffix
        for s in [s for s in seqs if suffix[s] is None]:
            # Entry j holds the last j items of the order, for every tail length j.
            bits = map((1).__lshift__, reversed(self.order[s]))
            suffix[s] = list(accumulate(bits, or_, initial=0))
        return [suffix[s][len(tail)] for s, tail in zip(seqs, tails)]

    def firsts(self, seqs: Sequence[int]) -> Located:
        """Each item's supporter indices and 1-based first positions."""
        pos_ids = self.pos_ids
        found: Located = defaultdict(lambda: ([], []))
        for k, seq_idx in enumerate(seqs):
            seq = pos_ids[seq_idx]
            # Read backwards, each item's last write is its first position.
            for iid, pos in dict(zip(reversed(seq), range(len(seq), 0, -1))).items():
                indices, positions = found[iid]
                indices.append(k)
                positions.append(pos)
        return found

    def locate(
        self,
        seqs: Sequence[int],
        starts: Sequence[int],
        tails: Sequence[tuple[int, ...]],
        wanted: Located,
    ) -> None:
        """Find where each supporter first holds each wanted item in its tail.

        Appends the supporter index, and the 1-based first position at
        or after the supporter's 0-based start, to wanted[iid]'s two
        lists, walking the supporters in order, so both are in
        supporter order.
        """
        pos_ids = self.pos_ids
        for k, (seq_idx, start, tail) in enumerate(zip(seqs, starts, tails)):
            events = pos_ids[seq_idx]
            # The tail holds every item present from start on, so index never raises.
            for iid in wanted.keys() & tail:
                indices, positions = wanted[iid]
                indices.append(k)
                positions.append(events.index(iid, start) + 1)


class _Node:
    """One pattern on the search path: its prefix, supporters and their frontiers.

    The node holds no constraint state; every constraint is read off
    `prefix`, the pattern's item ids. Entry k of `seqs` and of each of
    the `columns` describes the k-th supporting positive sequence: its
    index in the database, and the 1-based positions of its leftmost
    embedding, one column per prefix item. The last column holds the
    frontiers that extensions search after. A child's columns are its
    parent's, taken at the child's supporters, plus the positions it
    was located at, so the witness costs one reference per supporter
    and item and is never searched for again. `lacking` lists the
    supporters whose negative sequence lacks the prefix once the
    discriminative check has run, and is None before.
    """

    __slots__ = ("prefix", "seqs", "columns", "lacking")

    def __init__(self, prefix: tuple[int, ...], seqs: list[int], columns: Columns) -> None:
        self.prefix = prefix
        self.seqs = seqs
        self.columns = columns
        self.lacking: list[int] | None = None


class _Exhausted(Exception):
    """The node or time budget ran out; `mine` ends the walk where it is."""


class _Searcher:
    """The depth-first search, under one node/time budget.

    Each search node costs one unit of the budget, and so does each
    `_DEADLINE_STRIDE` embeddings enumerated in all mode, so both budgets
    bound emission too. The first unit that finds the budget spent raises
    `_Exhausted` instead, which unwinds the whole walk.
    """

    def __init__(self, prep: _Prepared, options: MiningOptions) -> None:
        self.prep = prep
        self.options = options
        self.deadline = (
            None if options.max_seconds is None else time.monotonic() + options.max_seconds
        )
        self.spent = 0
        self.found: list[PatternRecord] = []
        self.nodes = 0
        self.counters = dict.fromkeys(_COUNTERS, 0)

    def spend(self) -> None:
        """Charge one unit, or raise `_Exhausted` if the node or time budget ran out.

        `spent` counts the units charged, never the one refused.
        """
        max_nodes = self.options.max_nodes
        if (max_nodes is not None and self.spent >= max_nodes) or (
            self.deadline is not None and time.monotonic() > self.deadline
        ):
            raise _Exhausted
        self.spent += 1

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
            else:
                stack.append(self._visit(node))

    def _visit(self, node: _Node) -> Iterator[_Node]:
        """Spend, test and emit one node; return its children to visit."""
        self.spend()
        self.nodes += 1
        prep = self.prep
        if self.options.prune and len(node.seqs) < prep.min_support:
            # Children were checked before they were made, so only a root
            # gets here, and only by the support bound: a root's switch
            # counts are 0, which no interval (never below 0) overshoots.
            self.counters["support_pruned"] += 1
            return iter(())
        if _emittable(node.prefix, len(node.seqs), prep, partial(self._lacking, node)):
            self.found.append(self._emit(node))
        # With no max_len, a prefix as long as its supporters has no child anyway.
        if self.options.max_len is not None and len(node.prefix) >= self.options.max_len:
            return iter(())
        return self.children(node)

    def _lacking(self, node: _Node) -> int:
        """How many supporters' negative sequences lack the node's pattern.

        The lacking supporters are kept on the node for `_emit`.
        """
        self.counters["negative_checks"] += len(node.seqs)
        prefix, last, neg_ids = node.prefix, node.prefix[-1], self.prep.neg_ids
        # Most lack the last item altogether, which one C-level scan shows.
        node.lacking = [
            s for s in node.seqs if last not in neg_ids[s] or not _holds(prefix, neg_ids[s])
        ]
        return len(node.lacking)

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
        if not node.prefix:
            # Every root is wanted.
            wanted = prep.firsts(seqs)
        else:
            wanted = self._extensions(node)
            if not wanted:
                return iter(())
        columns = node.columns
        return (
            _Node(
                node.prefix + (iid,),
                list(map(seqs.__getitem__, indices)),
                (*[list(map(column.__getitem__, indices)) for column in columns], positions),
            )
            for iid, (indices, positions) in sorted(wanted.items())
        )

    def _extensions(self, node: _Node) -> Located:
        """A non-root node's kept candidates, each with its occurrences.

        Under pruning, a node whose tails are long enough is first tested
        as a leaf over their bit masks. If it is one, every distinct
        candidate is counted as pruned and nothing else is looked at.
        Otherwise every tail item is counted, and only the candidates
        that clear the support bound and the switch intervals are
        located; a leaf that the count finds keeps none, so nothing is
        located.
        """
        prep = self.prep
        seqs = node.seqs
        # A 1-based frontier is the 0-based position right after it.
        starts = node.columns[-1]
        tails = prep.tails(seqs, starts)
        bounded = self.options.prune
        if bounded and sum(map(len, tails)) >= _MASK_MEAN_TAIL * len(seqs):
            frequent, present = _frequent(prep.masks(seqs, tails), prep.min_support)
            if not frequent:
                self.counters["support_pruned"] += present.bit_count()
                return {}
        counts = Counter(chain.from_iterable(tails))
        if bounded:
            min_support = prep.min_support
            candidates = [iid for iid, supporters in counts.items() if supporters >= min_support]
            self.counters["support_pruned"] += len(counts) - len(candidates)
            prefix, tops = node.prefix, [hi for _, hi in prep.switch_bounds]
            kept = [
                iid
                for iid in candidates
                if all(count <= hi for count, hi in zip(prep.switches(prefix + (iid,)), tops))
            ]
            self.counters["switch_pruned"] += len(candidates) - len(kept)
            candidates = kept
        else:
            candidates = list(counts)
        wanted: Located = {iid: ([], []) for iid in candidates}
        if wanted:
            prep.locate(seqs, starts, tails, wanted)
        return wanted

    def _emit(self, node: _Node) -> PatternRecord:
        """The node's compact record.

        The record shares the node's prefix, supporter list and
        position columns. Witness mode keeps the columns, which hold
        each supporter's leftmost embedding. All mode enumerates the
        embeddings and charges them to the budget as it goes, since
        their number grows combinatorially, but keeps none of them: a budget that runs out
        meanwhile raises `_Exhausted`, so no record is kept for the
        node, and the readers of a kept record enumerate again. The
        discriminative supporters are the ones the node's discriminative
        check found lacking the pattern.
        """
        prep = self.prep
        witnesses = node.columns
        if self.options.embeddings != EMBEDDINGS_WITNESS:
            witnesses = None
            embeddings = chain.from_iterable(
                iter_embeddings(node.prefix, prep.pos_ids[seq_idx]) for seq_idx in node.seqs
            )
            # One unit per full stride, counted across all supporters.
            for _ in islice(embeddings, _DEADLINE_STRIDE - 1, None, _DEADLINE_STRIDE):
                self.spend()
        return PatternRecord(node.prefix, node.seqs, witnesses, node.lacking)


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
    if task.discriminative and len(database) and not database.has_negatives:
        raise MissingNegativeWindow(
            "the task is discriminative but the database has no negative sequences"
        )
    prep = _Prepared(task, database)
    searcher = _Searcher(prep, options)
    count = len(prep.pos_ids)
    complete = True
    try:
        searcher.run(_Node((), list(range(count)), ()))
    except _Exhausted:
        complete = False
    found = searcher.found
    # Interned ids follow canonical item order, so this is Pattern.sort_key order.
    found.sort(key=lambda record: (len(record.prefix), record.prefix))
    return MiningResult(
        records=tuple(found),
        complete=complete,
        nodes_expanded=searcher.nodes,
        counters=searcher.counters,
        items=database.items,
        patients=database.patients(),
        sequences=prep.pos_ids,
    )

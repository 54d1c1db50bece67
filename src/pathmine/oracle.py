"""Reference definitions of the query's semantics, and a brute-force miner.

`supports`, `positive_support`, `discriminative_support` and
`count_switches` state what each constraint means, directly from its
definition. `oracle_mine` enumerates every candidate pattern up to a
length bound as a plain cartesian product over the positive-sequence
alphabet and keeps the candidates these definitions accept: support of
at least `task.min_support`, every `task.contains` and `task.switches`
constraint, and, when the task has a negative window, enough
discriminative supporters. No projection, no pruning, no shared state
with the engine's search: agreement between the two is evidence, not
tautology.

Items seen only in negative sequences are not enumerated; their
patterns have zero positive support and can never reach a threshold
of at least one.
"""

from __future__ import annotations

import itertools

from .builder import CaseDatabase
from .errors import MissingNegativeWindow, TooLarge
from .model import EventSequence, Pattern, PatternTuple, find_embeddings
from .query import MiningTask

#: Refuse instances whose candidate count exceeds this.
CANDIDATE_LIMIT = 1_000_000


def supports(pattern: Pattern, sequence: EventSequence) -> bool:
    """True iff `sequence` contains at least one embedding of `pattern`.

    Greedy leftmost scan; never materializes the embedding set.
    """
    events = sequence.events
    total = len(events)
    pos = 0
    for target in pattern.items:
        while pos < total and events[pos][1] != target:
            pos += 1
        if pos == total:
            return False
        pos += 1
    return True


def positive_support(pattern: Pattern, database: CaseDatabase) -> frozenset:
    """Patients whose positive sequence contains the pattern."""
    return frozenset(
        pair.patient for pair in database if supports(pattern, pair.positive)
    )


def discriminative_support(pattern: Pattern, database: CaseDatabase) -> frozenset:
    """Patients supporting the pattern positively but not negatively.

    A patient with an empty negative sequence counts as soon as their
    positive sequence matches: nothing can match inside an empty
    sequence.
    """
    result = set()
    for pair in database:
        if pair.negative is None:
            raise MissingNegativeWindow(
                f"patient {pair.patient} has no negative window"
            )
        if supports(pattern, pair.positive) and not supports(pattern, pair.negative):
            result.add(pair.patient)
    return frozenset(result)


def count_switches(pattern: Pattern, attribute_index: int) -> int:
    """Adjacent position pairs whose attribute values differ."""
    items = pattern.items
    return sum(
        1
        for left, right in zip(items, items[1:])
        if left.values[attribute_index] != right.values[attribute_index]
    )


def _candidate_count(alphabet_size: int, max_len: int) -> int:
    return sum(alphabet_size**length for length in range(1, max_len + 1))


def oracle_mine(
    task: MiningTask, database: CaseDatabase, max_len: int
) -> tuple[PatternTuple, ...]:
    """All satisfying PatternTuples up to max_len, canonically sorted."""
    if task.discriminative and len(database) and not database.has_negatives:
        raise MissingNegativeWindow(
            "the task is discriminative but the database has no negative sequences"
        )
    alphabet = set()
    for pair in database:
        alphabet.update(pair.positive.items())
    count = _candidate_count(len(alphabet), max_len)
    if count > CANDIDATE_LIMIT:
        raise TooLarge(
            f"{count} candidate patterns exceed the oracle limit of {CANDIDATE_LIMIT}"
        )
    ordered_alphabet = sorted(alphabet, key=lambda item: item.sort_key())
    # Each constraint's attribute, resolved once to its index in the schema.
    contains = [(task.schema.index(c.attribute), c) for c in task.contains]
    switches = [(task.schema.index(c.attribute), c) for c in task.switches]

    found = []
    for length in range(1, max_len + 1):
        for items in itertools.product(ordered_alphabet, repeat=length):
            pattern = Pattern(items)
            embeddings = {}
            for pair in database:
                found_embs = find_embeddings(pattern, pair.positive)
                if found_embs:
                    embeddings[pair.patient] = found_embs
            supported = frozenset(embeddings)
            if len(supported) < task.min_support or not _satisfies(pattern, contains, switches):
                continue
            discr = None
            if task.discriminative:
                discr = discriminative_support(pattern, database)
                if len(discr) < task.min_support:
                    continue
            found.append(
                PatternTuple(
                    pattern=pattern,
                    supported=supported,
                    embeddings=embeddings,
                    discriminative=discr,
                )
            )
    found.sort(key=lambda pt: pt.pattern.sort_key())
    return tuple(found)


def _satisfies(pattern: Pattern, contains: list, switches: list) -> bool:
    """Every contains and switch constraint, evaluated from first principles.

    Each constraint comes paired with its attribute's index in the schema.
    """
    for at, constraint in contains:
        if not any(item.values[at] == constraint.value for item in pattern.items):
            return False
    for at, constraint in switches:
        count = count_switches(pattern, at)
        if constraint.comparator == "==" and count != constraint.value:
            return False
        if constraint.comparator == "<=" and count > constraint.value:
            return False
        if constraint.comparator == ">=" and count < constraint.value:
            return False
    return True

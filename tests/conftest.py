"""Shared test helpers: canonical query text and random instance builders."""

from __future__ import annotations

import random

from pathmine.builder import CaseDatabase, CasePair, IndexEventRule, WindowSpec
from pathmine.knowledge import CodeAttributes, KnowledgeBase, Taxonomy
from pathmine.model import EventSequence, Item
from pathmine.query import ContainsValue, MiningTask, SwitchCount

#: The study query exercised throughout the suite.
STUDY_QUERY = """\
index_event first diagnosis in {G40, G41};
event delivery where atc in {N03AX09, N03AX14, N03AX11, N03AG01, N03AF01}
      as (atc, group, generic);
window positive (index-90, index);
window negative (index-180, index-90);
min_support 20;
constraint discriminative;
constraint contains_value(generic, 1);
constraint contains_value(generic, 0);
constraint switch_count(generic) == 1;
"""

SCHEMA = ("atc", "group", "generic")

#: Small mixed alphabet covering both generic flags and two classes.
ALPHABET = (
    Item(("A1", "10", 0)),
    Item(("A1", "11", 1)),
    Item(("A2", "20", 0)),
    Item(("A2", "21", 1)),
)


def knowledge_base(cohort) -> KnowledgeBase:
    """A synthetic cohort's knowledge base, built from its rows without writing its files."""
    return KnowledgeBase(
        CodeAttributes.from_rows(row[:4] for row in cohort.attribute_rows),
        Taxonomy.from_edges(cohort.taxonomy_edges),
    )


def make_seq(items, days=None) -> EventSequence:
    items = tuple(items)
    if days is None:
        days = tuple(range(len(items)))
    return EventSequence(tuple(zip(days, items)))


def make_task(
    f_min: int = 1,
    discriminative: bool = False,
    contains=(),
    switch=(),
    schema=SCHEMA,
    class_filter=frozenset({"A1", "A2"}),
) -> MiningTask:
    """Assemble a MiningTask directly, bypassing the query front end.

    contains: iterable of (attribute, value); switch: iterable of
    (attribute, comparator, value).
    """
    return MiningTask(
        index_rule=IndexEventRule(frozenset({"G40", "G41"})),
        schema=schema,
        class_filter=class_filter,
        positive_window=WindowSpec(-90, 0),
        negative_window=WindowSpec(-180, -90) if discriminative else None,
        min_support=f_min,
        constraints=tuple(ContainsValue(attribute, value) for attribute, value in contains)
        + tuple(SwitchCount(*bound) for bound in switch),
    )


def random_instance(seed: int):
    """Seeded (task, database) pair within the oracle-friendly envelope.

    At most 8 patients, sequences of length at most 6, alphabet of at
    most 4 items, f_min in {1,2,3}; the seed bits toggle the
    discriminative, contains_value, and switch_count families.
    """
    rng = random.Random(seed)
    discriminative = bool(seed & 1)
    contains = [("generic", rng.choice([0, 1]))] if seed & 2 else []
    switch = []
    if seed & 4:
        switch.append(("generic", rng.choice(["==", "<=", ">="]), rng.randint(0, 2)))
    f_min = [1, 2, 3][seed % 3]
    alphabet = ALPHABET[: rng.randint(1, 4)]

    pairs = []
    for i in range(rng.randint(1, 8)):
        def one():
            length = rng.randint(0, 6)
            days = sorted(rng.sample(range(100), length))
            return make_seq((rng.choice(alphabet) for _ in range(length)), days)

        pairs.append(CasePair(f"p{i}", one(), one() if discriminative else None))
    task = make_task(
        f_min=f_min, discriminative=discriminative, contains=contains, switch=switch
    )
    return task, CaseDatabase(tuple(pairs))

"""Constraint-based sequential pattern mining over care-pathway events.

The pipeline: load raw delivery/diagnosis facts and a knowledge base
(`ingest`), derive per-patient case-crossover sequence pairs around an
index event (`builder`), compile a declarative query into an executable
task (`query`), and enumerate every pattern satisfying its constraints
(`engine`). `synth` generates cohorts with planted ground truth and
`oracle` is the brute-force reference used by the test suite.
"""

from .builder import (
    CaseDatabase,
    CasePair,
    IndexEventRule,
    WindowSpec,
    build_case_pair,
    build_database,
    find_index_event,
    make_event_mapping,
)
from .engine import (
    MiningOptions,
    MiningResult,
    count_switches,
    discriminative_support,
    mine,
    positive_support,
)
from .errors import (
    CycleError,
    DuplicateClause,
    DuplicateCode,
    EmptyClassFilter,
    InvalidPlantSpec,
    InvalidQuery,
    MissingClause,
    MissingNegativeWindow,
    NegativeDay,
    ParseError,
    PathmineError,
    QueryError,
    QuerySyntaxError,
    TooLarge,
    UnknownAttribute,
    UnknownCode,
)
from .ingest import (
    DeliveryFact,
    DiseaseFact,
    RawDatabase,
    load_deliveries,
    load_diseases,
    load_kb,
)
from .knowledge import (
    CodeAttributes,
    DeliveryAttributes,
    KnowledgeBase,
    Taxonomy,
)
from .model import (
    NEGATIVE,
    POSITIVE,
    Embedding,
    EventSequence,
    Item,
    Pattern,
    PatternTuple,
    find_embeddings,
    supports,
)
from .oracle import oracle_mine
from .query import (
    CompiledConstraint,
    MiningTask,
    QueryAst,
    compile_query,
    parse_query,
    print_query,
)
from .synth import CohortConfig, PlantSpec, generate_cohort, knowledge_base, raw_database, write_cohort

__version__ = "0.1.0"

__all__ = [
    "CaseDatabase",
    "CasePair",
    "CodeAttributes",
    "CohortConfig",
    "CompiledConstraint",
    "CycleError",
    "DeliveryAttributes",
    "DeliveryFact",
    "DiseaseFact",
    "DuplicateClause",
    "DuplicateCode",
    "Embedding",
    "EmptyClassFilter",
    "EventSequence",
    "IndexEventRule",
    "InvalidPlantSpec",
    "InvalidQuery",
    "Item",
    "KnowledgeBase",
    "MiningOptions",
    "MiningResult",
    "MiningTask",
    "MissingClause",
    "MissingNegativeWindow",
    "NEGATIVE",
    "NegativeDay",
    "POSITIVE",
    "ParseError",
    "PathmineError",
    "Pattern",
    "PatternTuple",
    "PlantSpec",
    "QueryAst",
    "QueryError",
    "QuerySyntaxError",
    "RawDatabase",
    "Taxonomy",
    "TooLarge",
    "UnknownAttribute",
    "UnknownCode",
    "WindowSpec",
    "build_case_pair",
    "build_database",
    "compile_query",
    "count_switches",
    "discriminative_support",
    "find_embeddings",
    "find_index_event",
    "generate_cohort",
    "knowledge_base",
    "load_deliveries",
    "load_diseases",
    "load_kb",
    "make_event_mapping",
    "mine",
    "oracle_mine",
    "parse_query",
    "positive_support",
    "print_query",
    "raw_database",
    "supports",
    "write_cohort",
]

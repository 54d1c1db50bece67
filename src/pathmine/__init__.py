"""Constraint-based sequential pattern mining over care-pathway events.

The pipeline: load raw delivery/diagnosis facts and a knowledge base
(`ingest`), derive per-patient case-crossover sequence pairs around an
index event (`builder`), compile a declarative query into an executable
task (`query`), and enumerate every pattern satisfying its constraints
(`engine`). `synth` generates cohorts with planted ground truth and
`oracle` holds the reference definitions of the query's semantics and
the brute-force miner the test suite holds the engine to.

The package exports the library surface the README documents; anything
else is imported from its module.
"""

from .builder import build_database
from .engine import MiningOptions, MiningResult, mine
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
from .ingest import RawDatabase, load_deliveries, load_diseases, load_kb
from .model import PatternTuple
from .oracle import oracle_mine
from .query import compile_query, parse_query

__version__ = "0.1.0"

__all__ = [
    "CycleError",
    "DuplicateClause",
    "DuplicateCode",
    "EmptyClassFilter",
    "InvalidPlantSpec",
    "InvalidQuery",
    "MiningOptions",
    "MiningResult",
    "MissingClause",
    "MissingNegativeWindow",
    "NegativeDay",
    "ParseError",
    "PathmineError",
    "PatternTuple",
    "QueryError",
    "QuerySyntaxError",
    "RawDatabase",
    "TooLarge",
    "UnknownAttribute",
    "UnknownCode",
    "build_database",
    "compile_query",
    "load_deliveries",
    "load_diseases",
    "load_kb",
    "mine",
    "oracle_mine",
    "parse_query",
]

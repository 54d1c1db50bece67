"""The package's public surface, and the internals the benchmark reads."""

import ast
import importlib
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import pathmine
from pathmine.builder import CaseDatabase
from pathmine.engine import MiningResult

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: The README's library surface: what its example imports, the result
#: types, the error family and the reference miner.
PUBLIC = [
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


def imported_from_pathmine(tree: ast.AST) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pathmine"
        for alias in node.names
    }


def test_all_is_the_library_surface():
    assert sorted(pathmine.__all__) == PUBLIC
    for name in pathmine.__all__:
        assert getattr(pathmine, name) is not None


def test_traced_run_imports_resolve():
    tree = ast.parse((BENCH / "traced.py").read_text(encoding="utf-8"))
    names = imported_from_pathmine(tree)
    assert names
    for name in names:
        assert hasattr(pathmine, name), name
    optional = [
        tuple(arg.value for arg in node.args)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_optional"
    ]
    assert ("pathmine.cli", "render_patterns") in optional
    assert ("pathmine.model", "find_embeddings") in optional
    for module, name in optional:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_setup_snippet_imports_resolve():
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    (snippet,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "SETUP_SNIPPET" for target in node.targets)
    ]
    names = imported_from_pathmine(ast.parse(snippet))
    assert names
    for name in names:
        assert hasattr(pathmine, name), name


@pytest.mark.parametrize(
    "cls, field", [(CaseDatabase, "pairs"), (MiningResult, "nodes_expanded")]
)
def test_fields_the_traced_run_reads(cls, field):
    # A dataclass field, or an attribute of the class such as a property.
    assert field in {f.name for f in fields(cls)} if is_dataclass(cls) else hasattr(cls, field)

"""Drug and diagnosis knowledge base.

Two read-only structures feed mining:

* a delivery code table mapping each product code to the attribute
  triple it is reified as (therapeutic class, speciality group, generic
  flag);
* a taxonomy over class codes, a child-to-parent DAG used to expand a
  class filter or an index-event rule to all descendant codes.

Codes are matched case-insensitively: every code is stripped and
upper-cased on the way in by `normalize_code`, the one normaliser the
loaders, the query and `synth` share.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .errors import CycleError, DuplicateCode, UnknownCode


class DeliveryAttributes(NamedTuple):
    """Reified attribute triple for one delivered product code.

    Its field names are the item attributes a query may project.
    """

    atc: str
    group: str
    generic: int


def normalize_code(code: str) -> str:
    """A code as every module compares it: stripped and upper-cased."""
    return code.strip().upper()


@dataclass(frozen=True)
class CodeAttributes:
    """Product code table: code -> (atc, group, generic).

    The same code may appear on several input rows only if every row
    agrees on the triple; a conflicting re-definition raises
    DuplicateCode. Extra columns of the attributes file are accepted and
    ignored, so rows that differ only there define one code.
    """

    _table: Mapping[str, DeliveryAttributes] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, str, int]]) -> "CodeAttributes":
        """Build from (cip, atc, group, generic) rows."""
        table: dict[str, DeliveryAttributes] = {}
        for cip, atc, group, generic in rows:
            code = normalize_code(cip)
            if generic not in (0, 1):
                raise ValueError(f"generic flag must be 0 or 1, got {generic!r}")
            attrs = DeliveryAttributes(normalize_code(atc), normalize_code(group), int(generic))
            if table.setdefault(code, attrs) != attrs:
                raise DuplicateCode(f"conflicting rows for delivery code {code}")
        return cls(table)

    def attributes(self, cip: str) -> DeliveryAttributes:
        try:
            return self._table[normalize_code(cip)]
        except KeyError:
            raise UnknownCode(f"unknown delivery code {normalize_code(cip)}") from None

    def codes(self) -> Iterable[str]:
        """Every code in the table, upper-cased."""
        return self._table.keys()

    def therapeutic_classes(self) -> frozenset[str]:
        return frozenset(attrs.atc for attrs in self._table.values())


@dataclass(frozen=True)
class Taxonomy:
    """Child-to-parent DAG over class codes with reflexive-transitive lookup.

    `ancestors` always contains the queried code itself; a code absent
    from the edge list is its own sole ancestor. Multiple parents are
    allowed, cycles are not: `from_edges` hands the edges to the standard
    library's `graphlib`, and a cycle raises CycleError naming one cycle
    child first, as in ``A -> B -> A``.
    """

    _parents: Mapping[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]]) -> "Taxonomy":
        parents: dict[str, set[str]] = {}
        for child, parent in edges:
            parents.setdefault(normalize_code(child), set()).add(normalize_code(parent))
        frozen = {child: frozenset(ps) for child, ps in parents.items()}
        try:
            graphlib.TopologicalSorter(frozen).prepare()
        except graphlib.CycleError as exc:
            # graphlib lists the cycle parent first; name it child first.
            loop = reversed(exc.args[1])
            raise CycleError("taxonomy cycle: " + " -> ".join(loop)) from None
        return cls(frozen)

    def ancestors(self, code: str) -> frozenset[str]:
        """Reflexive-transitive parent closure of `code`."""
        root = normalize_code(code)
        seen = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for parent in self._parents.get(node, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return frozenset(seen)


@dataclass(frozen=True)
class KnowledgeBase:
    """Everything external the pipeline consults: code table plus taxonomy."""

    attributes: CodeAttributes
    taxonomy: Taxonomy

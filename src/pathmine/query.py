"""Mining query language: parser and compiler.

A query is a short text of `;`-terminated statements (`#` starts a
comment) declaring what to mine:

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

`parse_query` builds the AST and `compile_query` resolves it against a
knowledge base into an executable MiningTask. Each clause has one form
from the parser to the search: the index event is the builder's
`IndexEventRule`, each window its `WindowSpec` (checked where the
statement is parsed, so a bad window is reported before any later
clause), and the AST's `ContainsValue` and `SwitchCount` are the
constraints. `constraint discriminative` is the negative window, not a
constraint of its own. What each constraint means is defined in
`oracle`; how the search uses it is described in `engine`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .builder import IndexEventRule, WindowSpec
from .errors import (
    DuplicateClause,
    EmptyClassFilter,
    InvalidQuery,
    MissingClause,
    QuerySyntaxError,
    UnknownAttribute,
)
from .knowledge import KnowledgeBase
from .model import AttributeValue

#: Reifiable delivery attributes, in canonical order.
ITEM_ATTRIBUTES = ("atc", "group", "generic")


# ---------------------------------------------------------------- AST


@dataclass(frozen=True)
class EventClause:
    codes: tuple[str, ...]
    projection: tuple[str, ...]


@dataclass(frozen=True)
class ContainsValue:
    attribute: str
    value: AttributeValue


@dataclass(frozen=True)
class SwitchCount:
    attribute: str
    comparator: str
    value: int

    def __post_init__(self) -> None:
        if self.comparator not in ("==", "<=", ">="):
            raise ValueError(f"switch comparator must be ==, <= or >=, got {self.comparator!r}")
        if self.value < 0:
            raise ValueError(f"switch bound must be >= 0, got {self.value}")


Constraint = Union[ContainsValue, SwitchCount]


@dataclass(frozen=True)
class QueryAst:
    index_event: IndexEventRule
    event: EventClause
    positive_window: WindowSpec
    negative_window: WindowSpec | None
    min_support: int
    discriminative: bool = False
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise InvalidQuery(f"min_support must be >= 1, got {self.min_support}")
        if self.discriminative and self.negative_window is None:
            raise MissingClause("constraint discriminative requires a negative window")
        if self.negative_window is not None and not self.discriminative:
            raise InvalidQuery(
                "a negative window is only meaningful with constraint discriminative"
            )


# ---------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<cmp>==|<=|>=)
      | (?P<int>\d+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[{}(),;+\-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "word" | "int" | "punct" | "cmp" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", line=line, column=pos - line_start + 1
            )
        kind = match.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, match.group(), line, pos - line_start + 1))
        newlines = match.group().count("\n")
        if newlines:
            line += newlines
            line_start = pos + match.group().rindex("\n") + 1
        pos = match.end()
    tokens.append(_Token("end", "", line, pos - line_start + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._at = 0

    def peek(self) -> _Token:
        return self._tokens[self._at]

    def next(self) -> _Token:
        token = self._tokens[self._at]
        if token.kind != "end":
            self._at += 1
        return token

    def fail(self, wanted: str, got: _Token) -> QuerySyntaxError:
        shown = repr(got.text) if got.kind != "end" else "end of query"
        return QuerySyntaxError(
            f"expected {wanted}, got {shown}", line=got.line, column=got.column
        )

    def expect_word(self, *texts: str) -> _Token:
        token = self.next()
        if token.kind != "word" or token.text not in texts:
            raise self.fail(" or ".join(f"'{t}'" for t in texts), token)
        return token

    def expect_punct(self, text: str) -> _Token:
        token = self.next()
        if token.kind != "punct" or token.text != text:
            raise self.fail(f"'{text}'", token)
        return token

    def expect_int(self) -> int:
        token = self.next()
        if token.kind != "int":
            raise self.fail("an integer", token)
        return int(token.text)

    def expect_ident(self) -> str:
        token = self.next()
        if token.kind != "word":
            raise self.fail("an identifier", token)
        return token.text


# -------------------------------------------------------------- parse


def _parse_code_set(cur: _Cursor) -> tuple[str, ...]:
    cur.expect_punct("{")
    codes = []
    while True:
        token = cur.next()
        if token.kind not in ("word", "int"):
            raise cur.fail("a code", token)
        codes.append(token.text.upper())
        token = cur.next()
        if token.kind == "punct" and token.text == "}":
            return tuple(codes)
        if not (token.kind == "punct" and token.text == ","):
            raise cur.fail("',' or '}'", token)


def _parse_bound(cur: _Cursor) -> int:
    cur.expect_word("index")
    token = cur.peek()
    if token.kind == "punct" and token.text in "+-":
        cur.next()
        magnitude = cur.expect_int()
        return magnitude if token.text == "+" else -magnitude
    return 0


def _parse_value(cur: _Cursor) -> Union[str, int]:
    token = cur.next()
    if token.kind == "int":
        # A code such as group 0438 keeps its digits; int() would drop the zero.
        value = int(token.text)
        return value if str(value) == token.text else token.text
    if token.kind == "word":
        return token.text
    raise cur.fail("a value", token)


def _parse_projection(cur: _Cursor) -> tuple[str, ...]:
    cur.expect_punct("(")
    names = [cur.expect_ident()]
    while True:
        token = cur.next()
        if token.kind == "punct" and token.text == ")":
            return tuple(names)
        if not (token.kind == "punct" and token.text == ","):
            raise cur.fail("',' or ')'", token)
        names.append(cur.expect_ident())


def _parse_constraint(cur: _Cursor, head: str) -> Constraint:
    if head == "contains_value":
        cur.expect_punct("(")
        attribute = cur.expect_ident()
        cur.expect_punct(",")
        value = _parse_value(cur)
        cur.expect_punct(")")
        return ContainsValue(attribute, value)
    cur.expect_punct("(")
    attribute = cur.expect_ident()
    cur.expect_punct(")")
    token = cur.next()
    if token.kind != "cmp":
        raise cur.fail("'==', '<=' or '>='", token)
    return SwitchCount(attribute, token.text, cur.expect_int())


def parse_query(text: str) -> QueryAst:
    """Parse query text into an AST; raises on syntax or clause errors."""
    cur = _Cursor(_tokenize(text))
    index_event: IndexEventRule | None = None
    event: EventClause | None = None
    windows: dict[str, WindowSpec] = {}
    min_support: int | None = None
    discriminative = False
    constraints: list[Constraint] = []

    while cur.peek().kind != "end":
        head = cur.next()
        if head.kind != "word":
            raise cur.fail("a clause keyword", head)
        if head.text == "index_event":
            cur.expect_word("first")
            cur.expect_word("diagnosis")
            cur.expect_word("in")
            codes = _parse_code_set(cur)
            if index_event is not None:
                raise DuplicateClause(f"second index_event clause at line {head.line}")
            index_event = IndexEventRule(frozenset(codes))
        elif head.text == "event":
            cur.expect_word("delivery")
            cur.expect_word("where")
            cur.expect_word("atc")
            cur.expect_word("in")
            codes = _parse_code_set(cur)
            cur.expect_word("as")
            projection = _parse_projection(cur)
            if event is not None:
                raise DuplicateClause(f"second event clause at line {head.line}")
            event = EventClause(codes, projection)
        elif head.text == "window":
            polarity = cur.expect_word("positive", "negative").text
            cur.expect_punct("(")
            lower = _parse_bound(cur)
            cur.expect_punct(",")
            upper = _parse_bound(cur)
            cur.expect_punct(")")
            if polarity in windows:
                raise DuplicateClause(f"second {polarity} window clause at line {head.line}")
            try:
                windows[polarity] = WindowSpec(lower, upper)
            except ValueError as exc:
                raise InvalidQuery(str(exc)) from None
        elif head.text == "min_support":
            value = cur.expect_int()
            if min_support is not None:
                raise DuplicateClause(f"second min_support clause at line {head.line}")
            min_support = value
        elif head.text == "constraint":
            kind = cur.expect_word("discriminative", "contains_value", "switch_count").text
            if kind != "discriminative":
                constraints.append(_parse_constraint(cur, kind))
            elif discriminative:
                raise DuplicateClause(f"second discriminative constraint at line {head.line}")
            else:
                discriminative = True
        else:
            raise cur.fail("a clause keyword", head)
        cur.expect_punct(";")

    if index_event is None:
        raise MissingClause("missing index_event clause")
    if event is None:
        raise MissingClause("missing event clause")
    if "positive" not in windows:
        raise MissingClause("missing positive window clause")
    if min_support is None:
        raise MissingClause("missing min_support clause")
    return QueryAst(
        index_event=index_event,
        event=event,
        positive_window=windows["positive"],
        negative_window=windows.get("negative"),
        min_support=min_support,
        discriminative=discriminative,
        constraints=tuple(constraints),
    )


# ------------------------------------------------------------ compile


@dataclass(frozen=True)
class MiningTask:
    """Executable form of a query, resolved against a knowledge base.

    `contains` and `switches` hold the query's constraints in declaration
    order, each attribute checked against `schema` and each contains
    value coerced to its attribute's domain. The task is discriminative
    exactly when it has a negative window; that filter's threshold, like
    the support threshold, is `min_support`.
    """

    index_rule: IndexEventRule
    schema: tuple[str, ...]
    class_filter: frozenset[str]
    positive_window: WindowSpec
    negative_window: WindowSpec | None
    min_support: int
    contains: tuple[ContainsValue, ...] = ()
    switches: tuple[SwitchCount, ...] = ()

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if not self.schema:
            raise ValueError("item schema must not be empty")
        # A hand-built task gets the checks compile_query makes.
        for constraint in self.contains + self.switches:
            _check_attribute(constraint.attribute, self.schema)
        for constraint in self.contains:
            value = _coerce_value(constraint.attribute, constraint.value)
            if type(value) is not type(constraint.value) or value != constraint.value:
                raise InvalidQuery(
                    f"{constraint.attribute} value {constraint.value!r} must be given as {value!r}"
                )

    @property
    def discriminative(self) -> bool:
        return self.negative_window is not None


def _check_attribute(attribute: str, schema: tuple[str, ...]) -> None:
    if attribute not in schema:
        raise UnknownAttribute(f"attribute {attribute!r} is not in the item schema")


def _coerce_value(attribute: str, value: Union[str, int]) -> AttributeValue:
    # Attribute domains: generic is 0/1, the other two are code strings.
    if attribute == "generic":
        if not isinstance(value, int) or value not in (0, 1):
            raise InvalidQuery(f"generic takes value 0 or 1, got {value!r}")
        return value
    return str(value).upper()


def expand_class_filter(
    codes: tuple[str, ...], kb: KnowledgeBase, exact: bool = False
) -> frozenset[str]:
    """All KB therapeutic classes matching the filter, listed codes included.

    A class matches when one of its taxonomy ancestors is listed; with
    exact=True only the listed codes themselves match.
    """
    listed = frozenset(code.upper() for code in codes)
    known = kb.attributes.therapeutic_classes()
    if exact:
        matching = listed & known
    else:
        matching = frozenset(tc for tc in known if kb.taxonomy.ancestors(tc) & listed)
    if not matching:
        raise EmptyClassFilter(f"no known therapeutic class matches {{{', '.join(sorted(listed))}}}")
    return listed | matching


def compile_query(ast: QueryAst, kb: KnowledgeBase, exact_class_match: bool = False) -> MiningTask:
    """Resolve an AST against the KB into a MiningTask."""
    schema = ast.event.projection
    for name in schema:
        if name not in ITEM_ATTRIBUTES:
            raise UnknownAttribute(f"unknown item attribute {name!r} in projection")
    if len(set(schema)) != len(schema):
        raise InvalidQuery(f"projection lists an attribute twice: ({', '.join(schema)})")

    # One pass in declaration order, so the first faulty clause is reported.
    contains = []
    switches = []
    for clause in ast.constraints:
        _check_attribute(clause.attribute, schema)
        if isinstance(clause, ContainsValue):
            value = _coerce_value(clause.attribute, clause.value)
            contains.append(ContainsValue(clause.attribute, value))
        else:
            switches.append(clause)
    return MiningTask(
        index_rule=ast.index_event,
        schema=schema,
        class_filter=expand_class_filter(ast.event.codes, kb, exact_class_match),
        positive_window=ast.positive_window,
        negative_window=ast.negative_window,
        min_support=ast.min_support,
        contains=tuple(contains),
        switches=tuple(switches),
    )

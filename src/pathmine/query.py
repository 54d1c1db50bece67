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

An integer is ASCII digits `0`-`9`. `_Cursor.expect_int` is its one
conversion: a value, a window bound, a switch bound or `min_support`
longer than Python converts to an int (4,300 digits by default) is a
`QuerySyntaxError` at its token, as any other syntax error is.

`parse_query` builds the executable `MiningTask` itself, and
`compile_query` only widens its class filter against a knowledge base.
Each clause has one form from the parser to the search: the index event
is the builder's `IndexEventRule`, each window its `WindowSpec` (checked
where the statement is parsed, so a bad window is reported before any
later clause), the event clause's codes are the class filter and its
projection the item schema, and each `ContainsValue` and `SwitchCount`,
kept in one tuple in declaration order, is a task constraint. Codes,
contains values included, are upper-cased on read; a generic flag is
kept as written. `constraint discriminative` is the negative window,
not a constraint of its own.

`parse_query` reports the first fault in this order: syntax and clause
faults as the text is read, a missing clause, `min_support`, the
negative window without `constraint discriminative` or the reverse, and
then, from `MiningTask.__post_init__`, the projection and each
constraint as declared. That check is the one check of a task's rules,
so a task built by hand is held to the rules a parsed one is. No fault
needs the knowledge base except an empty class filter, which
`compile_query` reports. What each constraint means is defined in
`oracle`; how the search uses it is described in `engine`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Union

from .builder import IndexEventRule, WindowSpec
from .errors import (
    DuplicateClause,
    EmptyClassFilter,
    InvalidQuery,
    MissingClause,
    QuerySyntaxError,
    UnknownAttribute,
)
from .knowledge import DeliveryAttributes, KnowledgeBase, normalize_code
from .model import AttributeValue


# --------------------------------------------------------------- task


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
class MiningTask:
    """Executable form of a query.

    `parse_query` builds it with `class_filter` the listed codes, so it
    admits exactly those classes; `compile_query` widens the filter to
    the classes below them in a knowledge base. The task is the one
    statement of a query's rules, and `__post_init__` checks them,
    whether the parser built the task or a caller did: `min_support` (an
    `int`, at least 1), then `schema` (item attributes, each named once,
    as a projection must), then each of `constraints` in declaration
    order (its attribute in `schema`, a contains value in its
    attribute's canonical form). `contains` and `switches` are views of
    `constraints` by kind. The task is discriminative exactly when it
    has a negative window; that filter's threshold, like the support
    threshold, is `min_support`.
    """

    index_rule: IndexEventRule
    schema: tuple[str, ...]
    class_filter: frozenset[str]
    positive_window: WindowSpec
    negative_window: WindowSpec | None
    min_support: int
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        # type(), not isinstance(): a bool is an int, but no count.
        if type(self.min_support) is not int:
            raise ValueError(f"min_support must be an integer, got {self.min_support!r}")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if not self.schema:
            raise ValueError("item schema must not be empty")
        for name in self.schema:
            if name not in DeliveryAttributes._fields:
                raise UnknownAttribute(f"unknown item attribute {name!r} in projection")
        if len(set(self.schema)) != len(self.schema):
            raise InvalidQuery(f"projection lists an attribute twice: ({', '.join(self.schema)})")
        for constraint in self.constraints:
            attribute = constraint.attribute
            if attribute not in self.schema:
                raise UnknownAttribute(f"attribute {attribute!r} is not in the item schema")
            if isinstance(constraint, SwitchCount):
                continue
            # Attribute domains: generic is 0/1, the other two are code strings.
            value = constraint.value
            if attribute == "generic":
                if not isinstance(value, int) or value not in (0, 1):
                    raise InvalidQuery(f"generic takes value 0 or 1, got {value!r}")
            elif value != (canonical := normalize_code(str(value))):
                raise InvalidQuery(f"{attribute} value {value!r} must be given as {canonical!r}")

    @property
    def contains(self) -> tuple[ContainsValue, ...]:
        return tuple(c for c in self.constraints if isinstance(c, ContainsValue))

    @property
    def switches(self) -> tuple[SwitchCount, ...]:
        return tuple(c for c in self.constraints if isinstance(c, SwitchCount))

    @property
    def discriminative(self) -> bool:
        return self.negative_window is not None


# ---------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<cmp>==|<=|>=)
      | (?P<int>[0-9]+)
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

    def expect_punct(self, text: str) -> None:
        token = self.next()
        if token.kind != "punct" or token.text != text:
            raise self.fail(f"'{text}'", token)

    def expect_int(self) -> int:
        token = self.next()
        if token.kind != "int":
            raise self.fail("an integer", token)
        try:
            return int(token.text)
        except ValueError:
            # Python refuses to convert a digit string past its length limit.
            raise QuerySyntaxError(
                f"integer too long ({len(token.text)} digits)", line=token.line, column=token.column
            ) from None

    def expect_ident(self) -> str:
        token = self.next()
        if token.kind != "word":
            raise self.fail("an identifier", token)
        return token.text

    def expect_code(self) -> str:
        token = self.next()
        if token.kind not in ("word", "int"):
            raise self.fail("a code", token)
        return normalize_code(token.text)


# -------------------------------------------------------------- parse

#: Each clause that may appear at most once, as its messages name it, and
#: whether a query must have it; a missing one is reported in this order.
_ONCE = {
    "index_event clause": True,
    "event clause": True,
    "positive window clause": True,
    "negative window clause": False,
    "min_support clause": True,
    "discriminative constraint": False,
}


def _parse_list(cur: _Cursor, opening: str, closing: str, parse_item: Callable) -> tuple:
    """A `{…}` or `(…)` list of one or more items, separated by commas."""
    cur.expect_punct(opening)
    items = [parse_item()]
    while True:
        token = cur.next()
        if token.kind == "punct" and token.text == closing:
            return tuple(items)
        if not (token.kind == "punct" and token.text == ","):
            raise cur.fail(f"',' or '{closing}'", token)
        items.append(parse_item())


def _parse_bound(cur: _Cursor) -> int:
    cur.expect_word("index")
    token = cur.peek()
    if token.kind == "punct" and token.text in "+-":
        cur.next()
        magnitude = cur.expect_int()
        return magnitude if token.text == "+" else -magnitude
    return 0


def _parse_value(cur: _Cursor) -> Union[str, int]:
    token = cur.peek()
    if token.kind == "int":
        # A code such as group 0438 keeps its digits; int() would drop the zero.
        value = cur.expect_int()
        return value if str(value) == token.text else token.text
    if token.kind == "word":
        return cur.next().text
    raise cur.fail("a value", token)


def _parse_constraint(cur: _Cursor, head: str) -> Constraint:
    cur.expect_punct("(")
    attribute = cur.expect_ident()
    if head == "contains_value":
        cur.expect_punct(",")
        value = _parse_value(cur)
        cur.expect_punct(")")
        # A generic flag is kept as written, to be checked as 0 or 1; a code is upper-cased.
        if attribute != "generic":
            value = normalize_code(str(value))
        return ContainsValue(attribute, value)
    cur.expect_punct(")")
    token = cur.next()
    if token.kind != "cmp":
        raise cur.fail("'==', '<=' or '>='", token)
    return SwitchCount(attribute, token.text, cur.expect_int())


def parse_query(text: str) -> MiningTask:
    """Parse query text into a task that admits exactly the listed classes.

    Raises on any fault that needs no knowledge base, in the order the
    module docstring gives.

    One leading UTF-8 byte-order mark is dropped, as the CSV readers
    drop it, so a query file read as plain UTF-8 parses as written.
    """
    cur = _Cursor(_tokenize(text.removeprefix("\ufeff")))
    found: dict[str, object] = {}
    constraints: list[Constraint] = []

    while cur.peek().kind != "end":
        # Only a word token can spell a clause keyword.
        head = cur.next()
        if head.text == "index_event":
            for word in ("first", "diagnosis", "in"):
                cur.expect_word(word)
            clause = "index_event clause"
            value = IndexEventRule(frozenset(_parse_list(cur, "{", "}", cur.expect_code)))
        elif head.text == "event":
            for word in ("delivery", "where", "atc", "in"):
                cur.expect_word(word)
            codes = frozenset(_parse_list(cur, "{", "}", cur.expect_code))
            cur.expect_word("as")
            clause, value = "event clause", (codes, _parse_list(cur, "(", ")", cur.expect_ident))
        elif head.text == "window":
            clause = f"{cur.expect_word('positive', 'negative').text} window clause"
            cur.expect_punct("(")
            lower = _parse_bound(cur)
            cur.expect_punct(",")
            value = (lower, _parse_bound(cur))
            cur.expect_punct(")")
        elif head.text == "min_support":
            clause, value = "min_support clause", cur.expect_int()
        elif head.text == "constraint":
            kind = cur.expect_word("discriminative", "contains_value", "switch_count").text
            if kind == "discriminative":
                clause, value = "discriminative constraint", True
            else:
                clause, value = None, _parse_constraint(cur, kind)
        else:
            raise cur.fail("a clause keyword", head)
        if clause is None:
            constraints.append(value)
        elif clause in found:
            raise DuplicateClause(f"second {clause} at line {head.line}")
        elif head.text == "window":
            try:
                found[clause] = WindowSpec(*value)
            except ValueError as exc:
                raise InvalidQuery(str(exc)) from None
        else:
            found[clause] = value
        cur.expect_punct(";")

    for clause, required in _ONCE.items():
        if required and clause not in found:
            raise MissingClause(f"missing {clause}")
    min_support = found["min_support clause"]
    negative_window = found.get("negative window clause")
    discriminative = "discriminative constraint" in found
    if min_support < 1:
        raise InvalidQuery(f"min_support must be >= 1, got {min_support}")
    if discriminative and negative_window is None:
        raise MissingClause("constraint discriminative requires a negative window")
    if negative_window is not None and not discriminative:
        raise InvalidQuery("a negative window is only meaningful with constraint discriminative")
    class_filter, schema = found["event clause"]
    return MiningTask(
        index_rule=found["index_event clause"],
        schema=schema,
        class_filter=class_filter,
        positive_window=found["positive window clause"],
        negative_window=negative_window,
        min_support=min_support,
        constraints=tuple(constraints),
    )


# ------------------------------------------------------------ compile


def expand_class_filter(
    listed: frozenset[str], kb: KnowledgeBase, exact: bool = False
) -> frozenset[str]:
    """All KB therapeutic classes matching the filter, listed codes included.

    The codes must be normalised, as the parser's are. A class matches
    when one of its taxonomy ancestors is listed; with exact=True only
    the listed codes themselves match.
    """
    known = kb.attributes.therapeutic_classes()
    if exact:
        matching = listed & known
    else:
        matching = frozenset(tc for tc in known if kb.taxonomy.ancestors(tc) & listed)
    if not matching:
        raise EmptyClassFilter(f"no known therapeutic class matches {{{', '.join(sorted(listed))}}}")
    return listed | matching


def compile_query(task: MiningTask, kb: KnowledgeBase, exact_class_match: bool = False) -> MiningTask:
    """The parsed task with its class filter widened against the KB.

    An empty class filter is the one query fault that needs the KB, so
    it is reported after every fault `parse_query` reports.
    """
    return replace(task, class_filter=expand_class_filter(task.class_filter, kb, exact_class_match))

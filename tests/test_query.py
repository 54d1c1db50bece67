"""Query language: grammar, constraint forms, compilation."""

from dataclasses import replace

import pytest

from pathmine.builder import IndexEventRule, WindowSpec, build_database
from pathmine.errors import (
    DuplicateClause,
    EmptyClassFilter,
    InvalidQuery,
    MissingClause,
    QuerySyntaxError,
    UnknownAttribute,
)
from pathmine.ingest import RawDatabase
from pathmine.knowledge import CodeAttributes, KnowledgeBase, Taxonomy
from pathmine.query import ContainsValue, SwitchCount, compile_query, parse_query
from pathmine.synth import CohortConfig, PlantSpec, generate_cohort

from conftest import STUDY_QUERY, knowledge_base, make_task

KB = KnowledgeBase(
    CodeAttributes.from_rows(
        [
            ("C1", "N03AG01", "438", 1),
            ("C2", "N03AX14", "1023", 0),
            ("C3", "N03AX09", "500", 1),
            ("C4", "N03AX11", "501", 0),
            ("C5", "N03AF01", "502", 1),
            ("C6", "N02BE01", "900", 0),
        ]
    ),
    Taxonomy.from_edges(
        [
            ("N03AG01", "N03AG"),
            ("N03AX09", "N03AX"),
            ("N03AX14", "N03AX"),
            ("N03AX11", "N03AX"),
            ("N03AF01", "N03AF"),
        ]
    ),
)

MINIMAL = """
index_event first diagnosis in {G40};
event delivery where atc in {N03AG01} as (atc, group, generic);
window positive (index-90, index);
min_support 1;
"""


class TestParse:
    def test_study_query_parses(self):
        task = parse_query(STUDY_QUERY)
        assert task.min_support == 20
        assert task.index_rule == IndexEventRule(frozenset({"G40", "G41"}))
        assert task.class_filter == {"N03AX09", "N03AX14", "N03AX11", "N03AG01", "N03AF01"}
        assert task.schema == ("atc", "group", "generic")
        assert task.positive_window == WindowSpec(-90, 0)
        assert task.negative_window == WindowSpec(-180, -90)
        assert task.discriminative is True
        assert task.constraints == (
            ContainsValue("generic", 1),
            ContainsValue("generic", 0),
            SwitchCount("generic", "==", 1),
        )

    def test_comments_and_blank_lines_ignored(self):
        ast = parse_query("# leading comment\n" + MINIMAL + "\n# trailing\n")
        assert ast.min_support == 1

    def test_one_leading_byte_order_mark_dropped(self):
        assert parse_query("\ufeff" + STUDY_QUERY) == parse_query(STUDY_QUERY)
        with pytest.raises(QuerySyntaxError):
            parse_query("\ufeff\ufeff" + STUDY_QUERY)

    def test_statement_may_span_lines(self):
        task = parse_query(MINIMAL.replace("as (atc, group, generic);", "\n  as (atc,\n group, generic);"))
        assert task.schema == ("atc", "group", "generic")

    def test_codes_uppercased(self):
        task = parse_query(MINIMAL.replace("{N03AG01}", "{n03ag01}"))
        assert task.class_filter == {"N03AG01"}

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("index_event first diagnosis in\n{G40%};")
        assert err.value.line == 2
        assert err.value.column == 5

    @pytest.mark.parametrize(
        "old, new, line, column, message",
        [
            ("index_event first", "index_event last", 1, 13, "expected 'first', got 'last'"),
            ("positive (index-90", "positive index-90", 3, 17, "expected '(', got 'index'"),
            ("min_support 1;", "min_support x;", 4, 13, "expected an integer, got 'x'"),
            ("as (atc,", "as (1,", 2, 43, "expected an identifier, got '1'"),
            ("{N03AG01}", "{,}", 2, 30, "expected a code, got ','"),
            ("{G40}", "{G40 G41}", 1, 37, "expected ',' or '}', got 'G41'"),
            (
                "min_support 1;",
                "min_support 1;\nconstraint contains_value(generic, ));",
                5, 36, "expected a value, got ')'",
            ),
            (
                "min_support 1;",
                "min_support 1;\nconstraint switch_count(generic) 1;",
                5, 34, "expected '==', '<=' or '>=', got '1'",
            ),
            ("min_support 1;", "min_support 1", 5, 1, "expected ';', got end of query"),
        ],
        ids=["word", "paren", "integer", "identifier", "code", "separator", "value", "cmp", "end"],
    )
    def test_an_unexpected_token_names_what_was_expected(self, old, new, line, column, message):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(MINIMAL.lstrip().replace(old, new))
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"line {line}, column {column}: {message}"

    @pytest.mark.parametrize(
        "old, new",
        [("min_support 1;", "min_support \u0663;"), ("index-90", "index-\u0669\u0660")],
    )
    def test_integers_are_ascii_digits(self, old, new):
        # Arabic-Indic digits are not read as 3 and 90.
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            parse_query(MINIMAL.replace(old, new))

    @pytest.mark.parametrize(
        "old, new, line, column",
        [
            ("min_support 1;", "min_support {};", 5, 13),
            ("(index-90,", "(index-{},", 4, 24),
            ("min_support 1;", "min_support 1; constraint contains_value(group, {});", 5, 49),
        ],
    )
    def test_an_integer_past_the_digit_limit_is_a_syntax_error(self, old, new, line, column):
        # Python refuses to convert more than 4,300 digits to an int by default.
        with pytest.raises(QuerySyntaxError, match="integer too long") as err:
            parse_query(MINIMAL.replace(old, new.format("1" * 5000)))
        assert (err.value.line, err.value.column) == (line, column)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query(MINIMAL + "frobnicate 3;\n")

    def test_unterminated_statement_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("min_support 3")

    def test_missing_index_event(self):
        text = "\n".join(line for line in MINIMAL.splitlines() if "index_event" not in line)
        with pytest.raises(MissingClause):
            parse_query(text)

    def test_missing_min_support(self):
        text = "\n".join(line for line in MINIMAL.splitlines() if "min_support" not in line)
        with pytest.raises(MissingClause):
            parse_query(text)

    def test_duplicate_clause(self):
        with pytest.raises(DuplicateClause):
            parse_query(MINIMAL + "min_support 2;\n")

    def test_duplicate_window(self):
        with pytest.raises(DuplicateClause):
            parse_query(MINIMAL + "window positive (index-30, index);\n")

    def test_min_support_zero_rejected(self):
        with pytest.raises(InvalidQuery):
            parse_query(MINIMAL.replace("min_support 1;", "min_support 0;"))

    def test_discriminative_requires_negative_window(self):
        with pytest.raises(MissingClause):
            parse_query(MINIMAL + "constraint discriminative;\n")

    def test_negative_window_requires_discriminative(self):
        with pytest.raises(InvalidQuery):
            parse_query(MINIMAL + "window negative (index-180, index-90);\n")

    def test_positive_bound_offset(self):
        # The grammar admits "index+N"; the window check rejects N > 0.
        ast = parse_query(MINIMAL.replace("(index-90, index)", "(index-90, index+0)"))
        assert ast.positive_window.upper_offset == 0

    def test_bad_window_reported_at_its_statement(self):
        # Before the missing min_support clause, and before the missing ';'.
        text = "\n".join(line for line in MINIMAL.splitlines() if "min_support" not in line)
        for bad in (text, MINIMAL.replace("index);", "index)")):
            with pytest.raises(InvalidQuery) as err:
                parse_query(bad.replace("(index-90, index)", "(index-90, index+5)"))
            assert str(err.value) == "window offsets must satisfy lower < upper <= 0, got (-90, 5)"

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (
                MINIMAL.replace("(atc, group, generic)", "(atc, dose)"),
                UnknownAttribute,
                "unknown item attribute 'dose' in projection",
            ),
            (
                MINIMAL + "constraint contains_value(generic, 2);\n",
                InvalidQuery,
                "generic takes value 0 or 1, got 2",
            ),
        ],
        ids=["projection", "constraint"],
    )
    def test_parse_reports_what_needs_no_kb(self, text, error, message):
        with pytest.raises(error) as err:
            parse_query(text)
        assert str(err.value) == message


class TestCompile:
    def test_study_class_filter(self):
        task = compile_query(parse_query(STUDY_QUERY), KB)
        assert task.class_filter >= {"N03AX09", "N03AX14", "N03AX11", "N03AG01", "N03AF01"}
        assert "N02BE01" not in task.class_filter
        assert task.min_support == 20

    def test_constraint_classification(self):
        task = compile_query(parse_query(STUDY_QUERY), KB)
        # One constraint per declared one; the discriminative threshold is min_support.
        assert task.discriminative
        assert task.contains == (ContainsValue("generic", 1), ContainsValue("generic", 0))
        assert task.switches == (SwitchCount("generic", "==", 1),)

    def test_switch_comparator_classes(self):
        for comparator in ("==", "<=", ">="):
            text = MINIMAL + f"constraint switch_count(generic) {comparator} 1;\n"
            task = compile_query(parse_query(text), KB)
            assert not task.discriminative and not task.contains
            (switch,) = task.switches
            assert switch.comparator == comparator

    @pytest.mark.parametrize("comparator, bound", [("<", 1), ("==", -1)])
    def test_switch_count_rejects_what_the_grammar_cannot_say(self, comparator, bound):
        with pytest.raises(ValueError):
            SwitchCount("generic", comparator, bound)

    def test_taxonomy_descent_expands_filter(self):
        text = MINIMAL.replace("{N03AG01}", "{N03AX}")
        task = compile_query(parse_query(text), KB)
        assert {"N03AX09", "N03AX14", "N03AX11"} <= task.class_filter
        assert "N03AG01" not in task.class_filter

    def test_exact_match_skips_descent(self):
        text = MINIMAL.replace("{N03AG01}", "{N03AX, N03AG01}")
        task = compile_query(parse_query(text), KB, exact_class_match=True)
        assert "N03AX09" not in task.class_filter
        assert "N03AG01" in task.class_filter

    def test_empty_class_filter(self):
        with pytest.raises(EmptyClassFilter):
            compile_query(parse_query(MINIMAL.replace("{N03AG01}", "{B01AC06}")), KB)

    def test_unknown_projection_attribute(self):
        with pytest.raises(UnknownAttribute):
            compile_query(
                parse_query(MINIMAL.replace("(atc, group, generic)", "(atc, dose)")), KB
            )

    def test_constraint_attribute_must_be_projected(self):
        text = MINIMAL.replace("(atc, group, generic)", "(atc, group)")
        text += "constraint contains_value(generic, 1);\n"
        with pytest.raises(UnknownAttribute):
            compile_query(parse_query(text), KB)

    @pytest.mark.parametrize(
        "projection, constraints, error, message",
        [
            # One clause with both faults: the attribute is checked first.
            (
                "(atc, group)",
                ["contains_value(generic, 2)"],
                UnknownAttribute,
                "attribute 'generic' is not in the item schema",
            ),
            # Two clauses with one fault each: the first declared wins.
            (
                "(group, generic)",
                ["contains_value(generic, 2)", "switch_count(atc) <= 1"],
                InvalidQuery,
                "generic takes value 0 or 1, got 2",
            ),
            (
                "(group, generic)",
                ["switch_count(atc) <= 1", "contains_value(generic, 2)"],
                UnknownAttribute,
                "attribute 'atc' is not in the item schema",
            ),
        ],
    )
    def test_constraint_errors_keep_declaration_order(
        self, projection, constraints, error, message
    ):
        text = MINIMAL.replace("(atc, group, generic)", projection)
        text += "".join(f"constraint {c};\n" for c in constraints)
        with pytest.raises(error) as err:
            compile_query(parse_query(text), KB)
        assert str(err.value) == message

    def test_duplicate_projection_rejected(self):
        with pytest.raises(InvalidQuery):
            compile_query(
                parse_query(MINIMAL.replace("(atc, group, generic)", "(atc, atc)")), KB
            )

    def test_attribute_names_are_case_sensitive(self):
        # Codes are upper-cased on read; attribute names are kept as written.
        text = MINIMAL.replace("(atc, group, generic)", "(ATC, group, generic)")
        with pytest.raises(UnknownAttribute) as err:
            compile_query(parse_query(text), KB)
        assert str(err.value) == "unknown item attribute 'ATC' in projection"

    def test_generic_constraint_value_coerced(self):
        text = MINIMAL + "constraint contains_value(generic, 2);\n"
        with pytest.raises(InvalidQuery):
            compile_query(parse_query(text), KB)

    def test_group_constraint_value_becomes_string(self):
        text = MINIMAL + "constraint contains_value(group, 438);\n"
        task = compile_query(parse_query(text), KB)
        (contains,) = task.contains
        assert contains.value == "438"

    def test_group_constraint_value_keeps_its_leading_zero(self):
        kb = KnowledgeBase(
            CodeAttributes.from_rows(
                [("C1", "N03AG01", "0438", 1), ("C2", "N03AG01", "438", 0)]
            ),
            Taxonomy.from_edges([]),
        )
        text = MINIMAL + "constraint contains_value(group, 0438);\n"
        ast = parse_query(text)
        assert ast.constraints == (ContainsValue("group", "0438"),)
        (contains,) = compile_query(ast, kb).contains
        assert contains.value == "0438"
        # A flag written with a leading zero is not silently read as 0 or 1.
        with pytest.raises(InvalidQuery, match="generic takes value 0 or 1, got '01'"):
            compile_query(parse_query(MINIMAL + "constraint contains_value(generic, 01);\n"), kb)

    def test_atc_constraint_word_value_compiles_upper_case(self):
        # A code value is a word token, upper-cased on read as every code is.
        task = parse_query(MINIMAL + "constraint contains_value(atc, n03ag01);\n")
        assert task.constraints == (ContainsValue("atc", "N03AG01"),)
        (contains,) = compile_query(task, KB).contains
        assert contains.value == "N03AG01"

    def test_bad_window_offsets_rejected_at_compile(self):
        text = MINIMAL.replace("(index-90, index)", "(index-90, index+5)")
        with pytest.raises(InvalidQuery):
            compile_query(parse_query(text), KB)

    def test_compilation_deterministic(self):
        first = compile_query(parse_query(STUDY_QUERY), KB)
        second = compile_query(parse_query(STUDY_QUERY), KB)
        assert first == second


class TestParsedTask:
    """A parsed task admits exactly its listed classes; compile_query widens them."""

    @pytest.fixture(scope="class")
    def cohort(self):
        plant = PlantSpec.parse("N03AG01,438,1|N03AX14,1023,0@10")
        return generate_cohort(CohortConfig(patients=80, seed=7, plant=plant, mean_events=8.0))

    def databases(self, cohort, text, **options):
        kb = knowledge_base(cohort)
        raw = RawDatabase(cohort.deliveries, cohort.diseases)
        parsed = parse_query(text)
        return (
            build_database(raw, parsed, kb),
            build_database(raw, compile_query(parsed, kb, **options), kb),
        )

    def test_listed_classes_build_the_exactly_matched_database(self, cohort):
        parsed, compiled = self.databases(cohort, STUDY_QUERY, exact_class_match=True)
        assert parsed.items
        assert parsed.items == compiled.items
        assert parsed.positives == compiled.positives
        assert parsed.negatives == compiled.negatives

    def test_a_listed_ancestor_needs_compile_query(self, cohort):
        text = STUDY_QUERY.replace("{N03AX09, N03AX14, N03AX11, N03AG01, N03AF01}", "{N03AX}")
        parsed, compiled = self.databases(cohort, text)
        assert parsed.items == ()
        assert compiled.items
        assert {item.values[0] for item in compiled.items} <= {"N03AX09", "N03AX14", "N03AX11"}


class TestHandBuiltTask:
    """A task built without parse_query gets the same checks."""

    def test_constraint_attribute_outside_the_schema(self):
        with pytest.raises(UnknownAttribute, match="'dose' is not in the item schema"):
            make_task(contains=[("dose", 1)])
        with pytest.raises(UnknownAttribute, match="'dose' is not in the item schema"):
            make_task(switch=[("dose", "<=", 1)])

    @pytest.mark.parametrize(
        "attribute, value, message",
        [
            ("generic", "1", "generic takes value 0 or 1, got '1'"),
            ("generic", 2, "generic takes value 0 or 1, got 2"),
            ("atc", "n03ag01", "atc value 'n03ag01' must be given as 'N03AG01'"),
            ("group", 438, "group value 438 must be given as '438'"),
        ],
    )
    def test_contains_value_outside_its_domain(self, attribute, value, message):
        with pytest.raises(InvalidQuery) as err:
            make_task(contains=[(attribute, value)])
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("min_support", 0, "min_support must be >= 1"),
            ("schema", (), "item schema must not be empty"),
            ("min_support", 150.0, "min_support must be an integer, got 150.0"),
            ("min_support", True, "min_support must be an integer, got True"),
        ],
    )
    def test_task_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError) as err:
            replace(make_task(), **{field: value})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "schema, error, message",
        [
            (("dose",), UnknownAttribute, "unknown item attribute 'dose' in projection"),
            (("atc", "atc"), InvalidQuery, "projection lists an attribute twice: (atc, atc)"),
        ],
    )
    def test_schema_checked_as_a_projection(self, schema, error, message):
        with pytest.raises(error) as err:
            make_task(schema=schema)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "constraints, error, message",
        [
            (
                (SwitchCount("atc", "<=", 1), ContainsValue("generic", 2)),
                UnknownAttribute,
                "attribute 'atc' is not in the item schema",
            ),
            (
                (ContainsValue("generic", 2), SwitchCount("atc", "<=", 1)),
                InvalidQuery,
                "generic takes value 0 or 1, got 2",
            ),
        ],
    )
    def test_constraint_errors_keep_declaration_order(self, constraints, error, message):
        # The order test_constraint_errors_keep_declaration_order pins for compile_query.
        task = make_task(schema=("group", "generic"))
        with pytest.raises(error) as err:
            replace(task, constraints=constraints)
        assert str(err.value) == message

    def test_projection_reported_before_an_empty_class_filter(self):
        text = MINIMAL.replace("(atc, group, generic)", "(atc, dose)")
        with pytest.raises(UnknownAttribute) as err:
            compile_query(parse_query(text.replace("{N03AG01}", "{B01AC06}")), KB)
        assert str(err.value) == "unknown item attribute 'dose' in projection"

    def test_compiled_task_passes_the_checks(self):
        task = compile_query(parse_query(STUDY_QUERY), KB)
        assert make_task(contains=[(c.attribute, c.value) for c in task.contains]).contains == (
            task.contains
        )

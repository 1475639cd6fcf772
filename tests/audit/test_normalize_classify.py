"""Tests for conjunctive-form normalization and local/cross classification."""

import pytest

from repro.audit.classify import PredicateScope, classify, cross_predicate_count
from repro.audit.normalize import push_negations, to_conjunctive_form
from repro.audit.parser import parse_criterion
from repro.errors import PlanningError, QuerySyntaxError
from repro.logstore.records import LogRecord


def evaluate_plain(node_or_form, record: dict) -> bool:
    """Reference evaluation of an AST or conjunctive form over one record."""
    from repro.audit.ast_nodes import And, Constant, Not, Or, Predicate
    from repro.audit.normalize import ConjunctiveForm

    def pred(p: Predicate) -> bool:
        left = record.get(p.left.name)
        if left is None:
            return False
        right = p.right.value if isinstance(p.right, Constant) else record.get(p.right.name)
        if right is None:
            return False
        try:
            l, r = float(left), float(right)
        except (TypeError, ValueError):
            l, r = str(left), str(right)
        return {
            "<": l < r, ">": l > r, "=": l == r,
            "!=": l != r, "<=": l <= r, ">=": l >= r,
        }[p.op]

    node = node_or_form
    if isinstance(node, ConjunctiveForm):
        return all(any(pred(p) for p in clause) for clause in node.clauses)
    if isinstance(node, Predicate):
        return pred(node)
    if isinstance(node, Not):
        return not evaluate_plain(node.child, record)
    if isinstance(node, And):
        return all(evaluate_plain(c, record) for c in node.children)
    if isinstance(node, Or):
        return any(evaluate_plain(c, record) for c in node.children)
    raise AssertionError(type(node))


RECORDS = [
    {"a": 1, "b": 10, "c": "x"},
    {"a": 5, "b": 5, "c": "y"},
    {"a": 9, "b": 1, "c": "x"},
    {"a": 0, "b": 0, "c": "z"},
]

CRITERIA = [
    "a > 3",
    "not a > 3",
    "a > 3 and b < 6",
    "a > 3 or b < 6",
    "not (a > 3 and b < 6)",
    "not (a > 3 or b < 6)",
    "(a > 3 or c = 'x') and (b < 6 or c = 'y')",
    "not (a > 3 or (b < 6 and c = 'x'))",
    "a = b or not (c = 'x') and a < 5",
    "not not (a > 3)",
]


class TestPushNegations:
    def test_no_not_remains(self):
        from repro.audit.ast_nodes import Not

        for text in CRITERIA:
            node = push_negations(parse_criterion(text))

            def walk(n):
                assert not isinstance(n, Not)
                for child in getattr(n, "children", []):
                    walk(child)

            walk(node)

    @pytest.mark.parametrize("text", CRITERIA)
    def test_semantics_preserved(self, text):
        node = parse_criterion(text)
        pushed = push_negations(node)
        for record in RECORDS:
            assert evaluate_plain(node, record) == evaluate_plain(pushed, record), (
                text,
                record,
            )


class TestConjunctiveForm:
    @pytest.mark.parametrize("text", CRITERIA)
    def test_cnf_semantics_preserved(self, text):
        node = parse_criterion(text)
        form = to_conjunctive_form(node)
        for record in RECORDS:
            assert evaluate_plain(node, record) == evaluate_plain(form, record), (
                text,
                record,
            )

    def test_counts(self):
        form = to_conjunctive_form(parse_criterion("(a = 1 or b = 2) and c = 3"))
        assert form.q == 2
        assert form.s == 3

    def test_duplicate_clauses_removed(self):
        form = to_conjunctive_form(parse_criterion("a = 1 and a = 1"))
        assert form.q == 1

    def test_duplicate_predicates_in_clause_removed(self):
        form = to_conjunctive_form(parse_criterion("a = 1 or a = 1"))
        assert form.s == 1

    def test_explosion_guard(self):
        # (a=1 and b=1) or (c=1 and d=1) or ... distributes exponentially.
        parts = " or ".join(f"(x{i} = 1 and y{i} = 1)" for i in range(15))
        with pytest.raises(QuerySyntaxError):
            to_conjunctive_form(parse_criterion(parts), max_clauses=100)

    def test_str_rendering(self):
        form = to_conjunctive_form(parse_criterion("a = 1 and (b = 2 or c = 3)"))
        assert str(form) == "(a = 1) and (b = 2 or c = 3)"


class TestClassification:
    def test_local_constant_predicate(self, table1_schema, table1_plan):
        form = to_conjunctive_form(parse_criterion("C1 > 30", table1_schema))
        [sq] = classify(form, table1_plan)
        assert not sq.is_cross
        assert sq.nodes == ("P3",)  # C1 lives on P3
        assert sq.predicates[0].scope is PredicateScope.LOCAL

    def test_local_attr_attr_same_node(self, table1_schema, table1_plan):
        form = to_conjunctive_form(parse_criterion("id = EID", table1_schema))
        [sq] = classify(form, table1_plan)
        assert not sq.is_cross  # both on P1

    def test_cross_predicate(self, table1_schema, table1_plan):
        form = to_conjunctive_form(parse_criterion("C1 < C2", table1_schema))
        [sq] = classify(form, table1_plan)
        assert sq.is_cross
        assert set(sq.nodes) == {"P1", "P3"}
        assert sq.cross_count == 1

    def test_figure3_style_labels(self, table1_schema, table1_plan):
        form = to_conjunctive_form(
            parse_criterion("Time = '1' and C1 < C2", table1_schema)
        )
        sqs = classify(form, table1_plan)
        labels = [sq.label for sq in sqs]
        assert labels[0] == "SQ0"      # local subquery: positional name
        assert labels[1] == "SQ13"     # cross subquery: node-set name

    def test_cross_count_total(self, table1_schema, table1_plan):
        form = to_conjunctive_form(
            parse_criterion("C1 < C2 and Tid = id and C1 > 5", table1_schema)
        )
        sqs = classify(form, table1_plan)
        assert cross_predicate_count(sqs) == 2

    def test_mixed_clause_nodes_unioned(self, table1_schema, table1_plan):
        form = to_conjunctive_form(
            parse_criterion("Time = '1' or Tid = 'T'", table1_schema)
        )
        [sq] = classify(form, table1_plan)
        assert set(sq.nodes) == {"P0", "P2"}
        assert not sq.is_cross  # two local predicates, no cross one

    def test_unknown_attribute_fails_planning(self, table1_schema, table1_plan):
        form = to_conjunctive_form(parse_criterion("ghost = 1"))
        with pytest.raises(PlanningError):
            classify(form, table1_plan)

    def test_non_repro_error_propagates_unchanged(self):
        """A genuine bug in the plan surfaces as itself, not as a
        ``PlanningError`` that blames the criterion."""

        class BrokenPlan:
            def home_of(self, attribute):
                raise TypeError("home_of is broken")

        form = to_conjunctive_form(parse_criterion("C1 > 30"))
        with pytest.raises(TypeError, match="home_of is broken"):
            classify(form, BrokenPlan())

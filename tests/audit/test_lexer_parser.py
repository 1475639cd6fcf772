"""Tests for the auditing-criteria lexer and parser."""

import pytest

from repro.audit.ast_nodes import And, AttributeRef, Constant, Not, Or, Predicate
from repro.audit.lexer import tokenize
from repro.audit.parser import parse_criterion
from repro.errors import QuerySyntaxError, UnknownAttributeError


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("C1 > 30 and protocl = 'UDP'")
        assert [t.type for t in tokens] == [
            "ATTR", "OP", "CONST", "AND", "ATTR", "OP", "CONST",
        ]

    def test_numbers(self):
        tokens = tokenize("a = 42 or b = 3.5 or c = -7")
        consts = [t.value for t in tokens if t.type == "CONST"]
        assert consts == [42, 3.5, -7]

    def test_string_quoting(self):
        assert tokenize("a = 'hi'")[2].value == "hi"
        assert tokenize('a = "hi"')[2].value == "hi"

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("a = 'oops")

    def test_two_char_operators(self):
        ops = [t.value for t in tokenize("a <= 1 b >= 2 c != 3 d == 4 e <> 5") if t.type == "OP"]
        assert ops == ["<=", ">=", "!=", "=", "!="]

    def test_symbol_connectives(self):
        tokens = tokenize("a = 1 & b = 2 | !c = 3")
        assert [t.type for t in tokens if t.type in ("AND", "OR", "NOT")] == [
            "AND", "OR", "NOT",
        ]

    def test_unicode_connectives(self):
        tokens = tokenize("a = 1 ∧ b = 2 ∨ ¬ c = 3")
        assert [t.type for t in tokens if t.type in ("AND", "OR", "NOT")] == [
            "AND", "OR", "NOT",
        ]

    def test_keywords_case_insensitive(self):
        tokens = tokenize("a = 1 AND b = 2 Or NOT c = 3")
        assert [t.type for t in tokens if t.type in ("AND", "OR", "NOT")] == [
            "AND", "OR", "NOT",
        ]

    def test_illegal_character(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("a = 1 # comment")

    def test_positions_recorded(self):
        tokens = tokenize("ab = 1")
        assert tokens[0].pos == 0 and tokens[1].pos == 3


class TestParser:
    def test_single_predicate(self):
        node = parse_criterion("C1 > 30")
        assert isinstance(node, Predicate)
        assert node.left == AttributeRef("C1")
        assert node.op == ">"
        assert node.right == Constant(30)

    def test_attr_vs_attr(self):
        node = parse_criterion("C1 = C2")
        assert isinstance(node.right, AttributeRef)

    def test_precedence_and_over_or(self):
        node = parse_criterion("a = 1 or b = 2 and c = 3")
        assert isinstance(node, Or)
        assert isinstance(node.children[1], And)

    def test_parentheses_override(self):
        node = parse_criterion("(a = 1 or b = 2) and c = 3")
        assert isinstance(node, And)
        assert isinstance(node.children[0], Or)

    def test_not_binds_tightest(self):
        node = parse_criterion("not a = 1 and b = 2")
        assert isinstance(node, And)
        assert isinstance(node.children[0], Not)

    def test_nested_not(self):
        node = parse_criterion("not not a = 1")
        assert isinstance(node, Not) and isinstance(node.child, Not)

    def test_nary_flattening(self):
        node = parse_criterion("a = 1 and b = 2 and c = 3 and d = 4")
        assert isinstance(node, And) and len(node.children) == 4

    def test_attributes_collected(self):
        node = parse_criterion("a = 1 and b = c or not d < 5")
        assert node.attributes() == {"a", "b", "c", "d"}

    def test_schema_validation(self, table1_schema):
        parse_criterion("C1 > 30", table1_schema)
        with pytest.raises(UnknownAttributeError):
            parse_criterion("ghost > 30", table1_schema)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "and",
            "a =",
            "a = 1 and",
            "(a = 1",
            "a = 1)",
            "a = 1 b = 2",
            "1 = a",
            "a = 1 = 2",
            "not",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_criterion(bad)

    def test_str_roundtrip_parses(self):
        text = "(C1 > 30 or protocl = 'TCP') and not Tid = 'T1'"
        node = parse_criterion(text)
        reparsed = parse_criterion(str(node))
        assert str(reparsed) == str(node)


class TestAstNodes:
    def test_predicate_negation_table(self):
        cases = {
            "<": ">=",
            ">": "<=",
            "=": "!=",
            "!=": "=",
            "<=": ">",
            ">=": "<",
        }
        for op, negated in cases.items():
            pred = Predicate(AttributeRef("a"), op, Constant(1))
            assert pred.negated().op == negated
            # Double negation is identity.
            assert pred.negated().negated() == pred

    def test_invalid_operator(self):
        with pytest.raises(QuerySyntaxError):
            Predicate(AttributeRef("a"), "~", Constant(1))

    def test_and_flattens_recursively(self):
        inner = And([Predicate(AttributeRef("a"), "=", Constant(1)),
                     Predicate(AttributeRef("b"), "=", Constant(2))])
        outer = And([inner, Predicate(AttributeRef("c"), "=", Constant(3))])
        assert len(outer.children) == 3

    def test_or_does_not_flatten_and(self):
        inner = And([Predicate(AttributeRef("a"), "=", Constant(1)),
                     Predicate(AttributeRef("b"), "=", Constant(2))])
        outer = Or([inner, Predicate(AttributeRef("c"), "=", Constant(3))])
        assert len(outer.children) == 2

    def test_predicates_order(self):
        node = parse_criterion("a = 1 and (b = 2 or c = 3)")
        assert [str(p.left) for p in node.predicates()] == ["a", "b", "c"]

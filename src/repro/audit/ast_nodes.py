"""AST for auditing criteria Q (paper §2).

An auditing criterion is built from *auditing predicates* combined with the
logical connectors ∧, ∨, ¬.  A predicate has the form ``A ⊙ (B | c)``
where A, B are audit-trail attributes, ``c`` is a constant and ⊙ is one of
``< > = != <= >=``.  Quantifiers are excluded by the paper's definition.

Node types: :class:`Predicate` (leaf), :class:`Not`, :class:`And`,
:class:`Or`.  Connectives are n-ary (flattened) to make normalization and
cost metrics straightforward.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuerySyntaxError

__all__ = ["Term", "AttributeRef", "Constant", "Predicate", "Not", "And", "Or", "Node"]

_OPERATORS = ("<", ">", "=", "!=", "<=", ">=")
_NEGATION = {"<": ">=", ">": "<=", "=": "!=", "!=": "=", "<=": ">", ">=": "<"}


class Term:
    """Base class for the two predicate operand kinds."""


@dataclass(frozen=True)
class AttributeRef(Term):
    """A reference to an audit-trail attribute (``A`` or ``B``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant(Term):
    """A literal constant ``c`` (int, float or string)."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


class Node:
    """Base class for criterion AST nodes."""

    def attributes(self) -> set[str]:
        """All attribute names referenced anywhere below this node."""
        return {
            term.name
            for pred in self.predicates()
            for term in (pred.left, pred.right)
            if isinstance(term, AttributeRef)
        }


@dataclass(frozen=True)
class Predicate(Node):
    """Leaf: ``left ⊙ right`` with left always an attribute reference."""

    left: AttributeRef
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise QuerySyntaxError(f"unknown operator {self.op!r}")
        if not isinstance(self.left, AttributeRef):
            raise QuerySyntaxError("predicate left-hand side must be an attribute")
        if not isinstance(self.right, (AttributeRef, Constant)):
            raise QuerySyntaxError("predicate right-hand side must be attr or const")

    def negated(self) -> "Predicate":
        """The equivalent predicate with the operator complemented."""
        return Predicate(self.left, _NEGATION[self.op], self.right)

    def predicates(self) -> list["Predicate"]:
        return [self]

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Not(Node):
    """Logical negation ¬."""

    child: Node

    def predicates(self) -> list[Predicate]:
        return self.child.predicates()

    def __str__(self) -> str:
        return f"not ({self.child})"


class _NaryNode(Node):
    """Shared behaviour of And/Or: flattened n-ary connectives."""

    symbol = "?"

    def __init__(self, children: list[Node]) -> None:
        if len(children) < 1:
            raise QuerySyntaxError(f"{type(self).__name__} needs children")
        flat: list[Node] = []
        for child in children:
            if type(child) is type(self):
                flat.extend(child.children)  # type: ignore[attr-defined]
            else:
                flat.append(child)
        self.children = tuple(flat)

    def predicates(self) -> list[Predicate]:
        return [p for child in self.children for p in child.predicates()]

    def __str__(self) -> str:
        return "(" + f" {self.symbol} ".join(str(c) for c in self.children) + ")"


class And(_NaryNode):
    """Logical conjunction ∧ (n-ary, auto-flattening)."""

    symbol = "and"


class Or(_NaryNode):
    """Logical disjunction ∨ (n-ary, auto-flattening)."""

    symbol = "or"

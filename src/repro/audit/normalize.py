"""Normalization to the paper's conjunctive form (§2).

"First, we normalize an auditing criterion (Q) to a conjunctive form ...
(SQ_1) ∧ ... ∧ (SQ_i) ∧ ... ∧ (SQ_m).  Each SQ_i is one of several atomic
auditing predicates connected by the logical connectors."

Pipeline:

1. **Negation push-down** — De Morgan plus operator complementation at the
   leaves (¬(A < c) ≡ A >= c), eliminating ``Not`` nodes entirely.
2. **CNF distribution** — distribute ∨ over ∧ so the tree becomes a
   conjunction of disjunction clauses.
3. **Clause coalescing** — the paper requires every SQ_i to be evaluable
   by one DLA node (local) or one relaxed-SMC group (cross).  A CNF clause
   mixing predicates of *different* node groups stays a single SQ (its
   evaluation is the union of the groups' glsn sets); the grouping logic
   lives in :mod:`repro.audit.classify`.

CNF distribution can explode exponentially; ``max_clauses`` guards it.
"""

from __future__ import annotations

from repro.audit.ast_nodes import And, Node, Not, Or, Predicate
from repro.errors import QuerySyntaxError

__all__ = ["push_negations", "to_conjunctive_form", "ConjunctiveForm"]


def push_negations(node: Node) -> Node:
    """Eliminate ``Not`` by De Morgan + leaf operator complementation."""
    return _push(node, negate=False)


def _push(node: Node, negate: bool) -> Node:
    if isinstance(node, Predicate):
        return node.negated() if negate else node
    if isinstance(node, Not):
        return _push(node.child, not negate)
    if isinstance(node, And):
        children = [_push(c, negate) for c in node.children]
        return Or(children) if negate else And(children)
    if isinstance(node, Or):
        children = [_push(c, negate) for c in node.children]
        return And(children) if negate else Or(children)
    raise QuerySyntaxError(f"unknown AST node {type(node).__name__}")


class ConjunctiveForm:
    """The normalized criterion Q_N = SQ_1 ∧ ... ∧ SQ_q.

    ``clauses`` is a list of subqueries; each subquery is a list of
    :class:`Predicate` understood as a disjunction.  The §5 counts fall
    straight out of this representation:

    * ``s`` — total atomic predicates,
    * ``q`` — number of conjunctive clauses,
    * ``t`` — cross predicates (needs a plan; see classify).
    """

    def __init__(self, clauses: list[list[Predicate]]) -> None:
        if not clauses:
            raise QuerySyntaxError("conjunctive form needs at least one clause")
        self.clauses = [list(clause) for clause in clauses]

    @property
    def q(self) -> int:
        return len(self.clauses)

    @property
    def s(self) -> int:
        return sum(len(clause) for clause in self.clauses)

    def __str__(self) -> str:
        parts = []
        for clause in self.clauses:
            body = " or ".join(str(p) for p in clause)
            parts.append(f"({body})")
        return " and ".join(parts)


def to_conjunctive_form(node: Node, max_clauses: int = 4096) -> ConjunctiveForm:
    """Normalize an arbitrary criterion AST to conjunctive form.

    Raises
    ------
    QuerySyntaxError
        If CNF distribution would exceed ``max_clauses`` clauses.
    """
    node = push_negations(node)
    clauses = _cnf(node, max_clauses)
    # Deduplicate predicates within a clause and identical clauses.
    seen_clauses: set[tuple] = set()
    result: list[list[Predicate]] = []
    for clause in clauses:
        unique: list[Predicate] = []
        seen: set[Predicate] = set()
        for pred in clause:
            if pred not in seen:
                seen.add(pred)
                unique.append(pred)
        key = tuple(sorted(str(p) for p in unique))
        if key not in seen_clauses:
            seen_clauses.add(key)
            result.append(unique)
    return ConjunctiveForm(result)


def _cnf(node: Node, max_clauses: int) -> list[list[Predicate]]:
    if isinstance(node, Predicate):
        return [[node]]
    if isinstance(node, And):
        out: list[list[Predicate]] = []
        for child in node.children:
            out.extend(_cnf(child, max_clauses))
            if len(out) > max_clauses:
                raise QuerySyntaxError(
                    f"criterion explodes past {max_clauses} CNF clauses"
                )
        return out
    if isinstance(node, Or):
        # (c11 ∧ c12) ∨ rest  =>  distribute pairwise.
        parts = [_cnf(child, max_clauses) for child in node.children]
        product: list[list[Predicate]] = [[]]
        for clauses in parts:
            new_product: list[list[Predicate]] = []
            for partial in product:
                for clause in clauses:
                    new_product.append(partial + clause)
                    if len(new_product) > max_clauses:
                        raise QuerySyntaxError(
                            f"criterion explodes past {max_clauses} CNF clauses"
                        )
            product = new_product
        return product
    raise QuerySyntaxError(
        f"normalize after push_negations: unexpected {type(node).__name__}"
    )

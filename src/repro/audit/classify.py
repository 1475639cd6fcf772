"""Local/cross classification of predicates and subqueries (paper §2).

"A ⊙ (B|c) can be evaluated in one single DLA node when both A and B are
available in the same node (local auditing predicate), or between two DLA
nodes (global auditing predicate)."

Given a :class:`~repro.logstore.fragmentation.FragmentPlan`, each predicate
is classified:

* ``LOCAL`` — all referenced attributes live on one node;
* ``CROSS`` — the attributes span nodes, so evaluation needs relaxed SMC.

A *subquery* (one conjunctive-form clause) gets the node set of its
predicates; the §5 metric's ``t`` counts its cross predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.audit.ast_nodes import AttributeRef, Predicate
from repro.audit.normalize import ConjunctiveForm
from repro.errors import PlanningError, ReproError
from repro.logstore.fragmentation import FragmentPlan

__all__ = ["PredicateScope", "ClassifiedPredicate", "ClassifiedSubquery", "classify"]


class PredicateScope(str, Enum):
    LOCAL = "local"
    CROSS = "cross"


@dataclass(frozen=True)
class ClassifiedPredicate:
    """A predicate plus its placement decision."""

    predicate: Predicate
    scope: PredicateScope
    nodes: tuple[str, ...]  # evaluating node(s); 1 for local, 2+ for cross

    @property
    def home(self) -> str:
        """The node that anchors evaluation (owner of the left attribute)."""
        return self.nodes[0]


@dataclass(frozen=True)
class ClassifiedSubquery:
    """One SQ_i with its predicate classifications (paper Figure 3).

    ``label`` renders like the paper's figure: ``SQ0`` for a pure-local
    subquery on P0, ``SQ013`` for a cross subquery spanning P0, P1, P3.
    """

    index: int
    predicates: tuple[ClassifiedPredicate, ...]
    nodes: tuple[str, ...]

    @property
    def is_cross(self) -> bool:
        return any(p.scope is PredicateScope.CROSS for p in self.predicates)

    @property
    def cross_count(self) -> int:
        return sum(1 for p in self.predicates if p.scope is PredicateScope.CROSS)

    @property
    def label(self) -> str:
        suffix = "".join(n.lstrip("P") for n in self.nodes)
        return f"SQ{suffix}" if self.is_cross else f"SQ{self.index}"


def classify_predicate(
    predicate: Predicate, plan: FragmentPlan
) -> ClassifiedPredicate:
    """Place one predicate onto the cluster."""
    left_home = plan.home_of(predicate.left.name)
    if not isinstance(predicate.right, AttributeRef):
        return ClassifiedPredicate(
            predicate=predicate,
            scope=PredicateScope.LOCAL,
            nodes=(left_home,),
        )
    right_home = plan.home_of(predicate.right.name)
    if right_home == left_home:
        return ClassifiedPredicate(
            predicate=predicate,
            scope=PredicateScope.LOCAL,
            nodes=(left_home,),
        )
    return ClassifiedPredicate(
        predicate=predicate,
        scope=PredicateScope.CROSS,
        nodes=(left_home, right_home),
    )


def classify(
    form: ConjunctiveForm, plan: FragmentPlan
) -> list[ClassifiedSubquery]:
    """Classify every clause of a normalized criterion.

    Raises
    ------
    PlanningError
        If any referenced attribute has no owner in the plan.
    """
    subqueries = []
    for index, clause in enumerate(form.clauses):
        classified = []
        nodes: set[str] = set()
        for predicate in clause:
            try:
                cp = classify_predicate(predicate, plan)
            except ReproError as exc:  # UnknownAttributeError and kin
                raise PlanningError(
                    f"cannot place predicate {predicate}: {exc}"
                ) from exc
            classified.append(cp)
            nodes.update(cp.nodes)
        subqueries.append(
            ClassifiedSubquery(
                index=index,
                predicates=tuple(classified),
                nodes=tuple(sorted(nodes)),
            )
        )
    return subqueries


def cross_predicate_count(subqueries: list[ClassifiedSubquery]) -> int:
    """§5's ``t``: total cross predicates in the normalized criterion."""
    return sum(sq.cross_count for sq in subqueries)

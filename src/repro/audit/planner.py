"""Query planner: from a parsed criterion to an executable plan (Figure 3).

The paper's processing recipe:

1. normalize Q to conjunctive form (SQ_1 ∧ ... ∧ SQ_q);
2. each SQ_i must be a local auditing predicate (one DLA node) or a global
   one (a relaxed-SMC group);
3. the conjunction of the SQ_i results is taken by secure set intersection
   with glsn as the set element, and the final glsn-keyed result goes back
   to the initiating user.

The planner performs steps 1-2, records the strategy each predicate will
use, and decides which node each clause's glsn set is conjoined at (clauses
that share a node are conjoined there and stay out of step 3's ring); the
:mod:`executor <repro.audit.executor>` performs the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit.ast_nodes import Node
from repro.audit.classify import (
    ClassifiedSubquery,
    classify,
    cross_predicate_count,
)
from repro.audit.normalize import ConjunctiveForm, to_conjunctive_form
from repro.audit.parser import parse_criterion
from repro.errors import PlanningError
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.schema import GlobalSchema

__all__ = ["PredicateStrategy", "QueryPlan", "plan_query"]


@dataclass(frozen=True)
class PredicateStrategy:
    """How one predicate will be evaluated."""

    description: str            # "local-scan", "cross-eq-intersection", ...
    primitive: str              # "scan" | "ssi" | "scmp" | ...
    # The evaluating parties.  Each of them ends up holding the result: the
    # two-party ∩ₛ and the blind-TTP comparison deliver to both parties.
    nodes: tuple[str, ...]


@dataclass
class QueryPlan:
    """The fully resolved plan for one auditing criterion."""

    criterion_text: str
    form: ConjunctiveForm
    subqueries: list[ClassifiedSubquery]
    strategies: dict[str, PredicateStrategy] = field(default_factory=dict)
    #: Evaluate only rows whose glsn is at least this (``None``: every
    #: row).  Every predicate is a function of one row's values, so the
    #: answer is the full answer's glsns at or above the floor.
    floor: int | None = None

    @property
    def q(self) -> int:
        """Number of conjunctive clauses (§5's ``q``)."""
        return len(self.subqueries)

    @property
    def s(self) -> int:
        """Total atomic predicates (§5's ``s``)."""
        return self.form.s

    @property
    def t(self) -> int:
        """Total cross predicates (§5's ``t``)."""
        return cross_predicate_count(self.subqueries)

    @property
    def needs_final_intersection(self) -> bool:
        """Whether the clauses end up on more than one node (step 3's ring)."""
        return len(set(self._anchors().values())) > 1

    def fingerprint(self) -> str:
        """Canonical identity of *what this plan computes*.

        Two plans with equal fingerprints produce equal results over equal
        store states: clauses are commutative under the final conjunction
        and predicates under each clause's disjunction, so both levels are
        sorted.  The query scheduler coalesces queries on
        ``(fingerprint, store epochs)`` — criterion-text differences that
        do not change the computation (clause order, spacing) still share,
        and a floored plan never shares with an unfloored one.
        """
        clauses = sorted(
            "|".join(sorted(str(cp.predicate) for cp in sq.predicates))
            for sq in self.subqueries
        )
        text = " & ".join(clauses)
        return text if self.floor is None else f"{text} @ glsn >= {self.floor}"

    def _holders(self, sq: ClassifiedSubquery) -> tuple[str, ...]:
        """The nodes that hold clause ``sq``'s glsn set once it is evaluated.

        A single predicate's result is held by every party of its strategy.
        A disjunction's secure union is delivered to one node, the smallest
        of its predicates' home nodes.
        """
        if len(sq.predicates) == 1:
            return self.strategies[str(sq.predicates[0].predicate)].nodes
        return (min(cp.home for cp in sq.predicates),)

    def _anchors(self) -> dict[int, str]:
        """``subquery index -> node`` its glsn set is conjoined at.

        A clause one node holds is anchored there.  A clause two nodes hold
        goes to whichever of them already anchors another clause, so that
        the conjunction is a local set operation on that node and needs no
        ring; failing that, to the left party.  One-holder clauses are
        placed first, which makes the outcome independent of clause order.
        """
        holders = {sq.index: self._holders(sq) for sq in self.subqueries}
        anchors: dict[int, str] = {}
        for index in sorted(holders, key=lambda index: len(holders[index])):
            taken = set(anchors.values())
            anchors[index] = next(
                (node for node in holders[index] if node in taken), holders[index][0]
            )
        return anchors

    def describe(self) -> str:
        """Figure-3-style rendering of the decomposition."""
        lines = [f"Q: {self.criterion_text}", f"Q_N: {self.form}"]
        for sq in self.subqueries:
            kind = "cross" if sq.is_cross else "local"
            nodes = ",".join(sq.nodes)
            preds = " or ".join(str(p.predicate) for p in sq.predicates)
            held = ""
            if sq.is_cross:
                held = f" -> held by {' or '.join(self._holders(sq))}"
            lines.append(f"  {sq.label} [{kind} @ {nodes}]: {preds}{held}")
        if self.q > 1:
            anchors = self._anchors()
            by_anchor: dict[str, list[str]] = {}
            for sq in self.subqueries:
                by_anchor.setdefault(anchors[sq.index], []).append(sq.label)
            groups = [
                f"({' & '.join(labels)})@{node}" if len(labels) > 1 else labels[0]
                for node, labels in by_anchor.items()
            ]
            how = "secure set intersection" if len(groups) > 1 else "local conjunction"
            lines.append(f"  final: {how} on glsn: {' ∩ '.join(groups)}")
        return "\n".join(lines)


_ORDERED_OPS = ("<", ">", "<=", ">=")


def plan_query(
    criterion: str | Node,
    schema: GlobalSchema,
    plan: FragmentPlan,
    tracer=None,
) -> QueryPlan:
    """Build the execution plan for an auditing criterion.

    Accepts either criterion text or an already-parsed AST.  When a
    tracer is given, planning runs inside a ``query.plan`` span whose
    attributes record the decomposition counts (q, s, t).
    """
    if tracer is not None and tracer.enabled:
        with tracer.span("query.plan") as span:
            qplan = plan_query(criterion, schema, plan)
            span.set_attributes(
                {
                    "criterion": qplan.criterion_text,
                    "q": qplan.q,
                    "s": qplan.s,
                    "t": qplan.t,
                }
            )
            return qplan
    if isinstance(criterion, str):
        text = criterion
        ast = parse_criterion(criterion, schema)
    else:
        text = str(criterion)
        ast = criterion
    form = to_conjunctive_form(ast)
    subqueries = classify(form, plan)

    strategies: dict[str, PredicateStrategy] = {}
    for sq in subqueries:
        for cp in sq.predicates:
            pred = cp.predicate
            key = str(pred)
            if cp.scope.value == "local":
                strategies[key] = PredicateStrategy(
                    description="local-scan", primitive="scan", nodes=cp.nodes
                )
                continue
            # Cross predicate: choose the relaxed-SMC primitive by operator.
            left_attr = schema.get(pred.left.name)
            right_attr = schema.get(pred.right.name)  # AttributeRef guaranteed
            if pred.op in ("=", "!="):
                strategies[key] = PredicateStrategy(
                    description="cross-equality via commutative set intersection",
                    primitive="ssi",
                    nodes=cp.nodes,
                )
            elif pred.op in _ORDERED_OPS:
                # Undefined attributes (C_1..C_n) are opaque to the DLA
                # cluster but may well be numeric to the application; their
                # comparability is only checkable at execution time.
                def _orderable(attr) -> bool:
                    return attr.comparable or attr.is_undefined

                if not (_orderable(left_attr) and _orderable(right_attr)):
                    raise PlanningError(
                        f"ordered cross predicate {pred} needs comparable "
                        f"attributes (got {left_attr.kind.value}, "
                        f"{right_attr.kind.value})"
                    )
                strategies[key] = PredicateStrategy(
                    description="cross-order via blind-TTP secure compare",
                    primitive="scmp",
                    nodes=cp.nodes,
                )
            else:  # pragma: no cover - operator set is closed
                raise PlanningError(f"no strategy for operator {pred.op!r}")
    return QueryPlan(
        criterion_text=text, form=form, subqueries=subqueries, strategies=strategies
    )

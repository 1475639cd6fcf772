"""Distributed confidential query execution (paper §2 Figure 3, §4.2).

Evaluation strategy per plan element:

* **local predicate** — the owning DLA node scans its fragment store and
  produces the satisfying glsn set (pure local work, no disclosure);
* **cross equality** ``A = B`` — the two owner nodes build composite
  elements ``glsn|value`` and run the commutative-cipher secure set
  intersection; the surviving glsns satisfy the join.  ``A != B`` is the
  common glsns minus the equality matches;
* **cross order** ``A < B`` etc. — per common glsn, one blind-TTP secure
  comparison (§3.3's two-party case), each owner having checked first that
  its own column is numeric;
* **common glsns** of two attributes (:meth:`QueryExecutor._common_glsns`)
  — a secure intersection of the two presence sets or, when the owners'
  glsn indexes agree and the attributes are mostly present, the index
  minus a secure union of the two *absent* sets: the same set and the same
  view for every party, at a cost that grows with sparsity, not with the
  log;
* **clause disjunction** — per-clause glsn sets are merged with the secure
  set union when they live on different nodes;
* **final conjunction** — the paper's rule: "the conjunction of SQ_i is
  processed by a secure set intersection with glsn as the set element",
  between the distinct nodes the plan anchored the clauses at
  (:meth:`QueryPlan._anchors <repro.audit.planner.QueryPlan._anchors>`:
  both parties of a cross predicate hold its result, so a clause that
  shares a node with another is conjoined there and no ring is run for it).

All SMC runs share one :class:`~repro.smc.base.SmcContext`, so cost and
leakage accounting cover the entire query.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, repeat

from repro.audit.ast_nodes import AttributeRef, Constant, Predicate
from repro.audit.planner import QueryPlan, plan_query
from repro.cache import LruCache
from repro.crypto.pohlig_hellman import SHORT_EXPONENT_BITS
from repro.errors import AuditError, PlanningError
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.schema import GlobalSchema
from repro.logstore.store import DistributedLogStore
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline
from repro.smc.base import SmcContext, SmcResult, protocol_span
from repro.smc.comparison import (
    evaluate_operator,
    secure_compare_async,
    secure_compare_batch_async,
)
from repro.smc.intersection import (
    # the sync alias stays importable from here: benchmarks/e2e/test_harness.py
    # checks that the tracer rebinds and restores it on this module
    secure_set_intersection,  # noqa: F401
    secure_set_intersection_async,
)
from repro.smc.ranking import secure_ranking
from repro.smc.sum_ import secure_sum
from repro.smc.union_ import secure_set_union, secure_set_union_async
from repro.twin import sync_twin

__all__ = ["QueryResult", "AggregateResult", "QueryExecutor"]

_NUMERIC_SCALE = 100  # fixed-point scale for decimal attribute comparison


_COMPARE = {
    "<": operator.lt,
    ">": operator.gt,
    "=": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
}


def _apply_op(op: str, left, right) -> bool:
    """Compare one value pair: numbers numerically, else as ``str``."""
    try:
        pair = float(left), float(right)
    except (TypeError, ValueError):
        pair = str(left), str(right)
    return _COMPARE[op](*pair)


class _Column:
    """One attribute on one node at one store epoch, typed once for scanning.

    ``raw`` maps glsn to the value as stored, in glsn order (iterating the
    column gives those pairs).  ``nums`` holds the rows ``float()`` accepts
    as floats and ``texts`` the rows it refuses with ``TypeError`` /
    ``ValueError`` as ``str`` — the two coercions :func:`_apply_op`
    would otherwise repeat for every row of every query.  A row ``float()``
    fails on any other way (an integer beyond the float range) is in
    neither but in ``rest``: :func:`_apply_op` judges it, or raises on it,
    as a row scan would.
    """

    def __init__(self, fragments, attribute: str) -> None:
        self.raw = {
            frag.glsn: frag.values[attribute]
            for frag in fragments
            if attribute in frag.values
        }
        self.nums: dict[int, float] = {}
        self.texts: dict[int, str] = {}
        self.rest: list[int] = []
        for glsn, value in self.raw.items():
            try:
                self.nums[glsn] = float(value)
            except (TypeError, ValueError):
                self.texts[glsn] = str(value)
            except ArithmeticError:
                self.rest.append(glsn)

    def __iter__(self):
        return iter(self.raw.items())

    def match_constant(self, op: str, constant) -> set[int]:
        """Glsns whose value satisfies ``value ⊙ constant``."""
        compare = _COMPARE[op]
        text = str(constant)
        out = {glsn for glsn, value in self.texts.items() if compare(value, text)}
        try:
            number = float(constant)
        except (TypeError, ValueError, ArithmeticError):
            # No float to hold the numeric rows against: they go by the row rule.
            untyped = [*self.nums, *self.rest]
        else:
            out |= {g for g, value in self.nums.items() if compare(value, number)}
            untyped = self.rest
        out.update(g for g in untyped if _apply_op(op, self.raw[g], constant))
        return out

    def match_column(self, op: str, other: "_Column") -> set[int]:
        """Glsns carrying both attributes with ``self ⊙ other`` true."""
        compare = _COMPARE[op]
        both = self.raw.keys() & other.raw.keys()
        numeric = both & self.nums.keys() & other.nums.keys()
        out = {g for g in numeric if compare(self.nums[g], other.nums[g])}
        out.update(
            g for g in both - numeric if _apply_op(op, self.raw[g], other.raw[g])
        )
        return out


def _scaled_int(value) -> int:
    """Fixed-point integer encoding for blind-TTP order comparison."""
    number = float(value)
    scaled = round(number * _NUMERIC_SCALE)
    if scaled < 0:
        raise AuditError(
            f"ordered cross comparison requires non-negative values, got {value}"
        )
    return scaled


def _scaled_values(attribute: str, node_id: str, values) -> list[int]:
    """Fixed-point encodings of one owner's aggregate inputs.

    A value that is not a finite number is the query's fault, not a bug:
    it fails the aggregate with a typed error before any round is run.
    """
    try:
        return [_scaled_int(value) for value in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise AuditError(
            f"aggregate over {attribute!r} needs numeric values, but "
            f"{node_id} holds a non-numeric one"
        ) from exc


def _unscaled(scaled: int, samples) -> object:
    """A fixed-point aggregate in the samples' terms: ``int`` if all of them are."""
    if all(map(isinstance, samples, repeat(int))):
        return scaled // _NUMERIC_SCALE
    return scaled / _NUMERIC_SCALE


@dataclass
class QueryResult:
    """Outcome of one confidential auditing query."""

    plan: QueryPlan
    glsns: list[int]
    subquery_glsns: dict[str, list[int]] = field(default_factory=dict)
    messages: int = 0
    bytes: int = 0

    @property
    def count(self) -> int:
        return len(self.glsns)


@dataclass
class AggregateResult:
    """Outcome of a confidential aggregate (Σ / max / min / count)."""

    op: str
    attribute: str
    value: object
    matched: int
    holder: str | None = None  # argmax/argmin owner for max/min


class QueryExecutor:
    """Evaluates auditing criteria against a fragmented log store."""

    def __init__(
        self,
        store: DistributedLogStore,
        ctx: SmcContext,
        schema: GlobalSchema,
        value_bound: int = 2**40,
        batch_compare: bool = True,
        projection_cache=None,
        subplan_cache=None,
    ) -> None:
        self.store = store
        self.ctx = ctx
        self.schema = schema
        self.plan: FragmentPlan = store.plan
        self.value_bound = value_bound
        # Batched blind-TTP comparison sends all per-glsn value pairs in
        # one round trip; per-glsn mode (batch_compare=False) exists for
        # the A2 ablation and costs 4 messages per common glsn.
        self.batch_compare = batch_compare
        # Early exit evaluates local (SMC-free) clauses first and stops as
        # soon as any clause yields no glsns — the conjunction is then
        # empty and the remaining cross-predicate SMC runs are skipped.
        self.early_exit = True
        self._session = 0
        # Home of the typed columns (:meth:`_projection`); with the cache
        # kill switch off they are rebuilt per use.  The query scheduler
        # injects the service executor's cache here, so every query the
        # service runs builds a column once per (node, attribute, epoch)
        # and keeps the latest one.
        self._projection_cache = (
            projection_cache
            if projection_cache is not None
            else LruCache("query.projection")
        )
        # The sub-plan memo (:meth:`_evaluate_predicate`): the service's
        # one epoch-keyed ``LruCache``, read and written in place by every
        # executor the service builds.  ``None`` (a bare executor, or
        # ``REPRO_SCHED_COALESCE`` off) runs every cross predicate's rounds.
        self._subplan_cache = subplan_cache

    # -- public API -----------------------------------------------------------

    async def execute_async(
        self,
        criterion: str | QueryPlan,
        net: SimNetwork | None = None,
        deadline: Deadline | None = None,
    ) -> QueryResult:
        """Evaluate an auditing criterion; returns the glsn-keyed result.

        ``deadline`` propagates into every SMC round the plan triggers:
        each protocol launch (and, on a resilient net, each failover)
        checks the remaining budget and raises a typed
        :class:`~repro.errors.DeadlineExceededError` once spent.

        :meth:`execute` is :func:`~repro.twin.sync_twin` of this coroutine.
        """
        tracer = self.ctx.tracer
        net = net or SimNetwork(tracer=tracer)
        with protocol_span(self.ctx, net, "query.execute") as span:
            qplan = (
                criterion
                if isinstance(criterion, QueryPlan)
                else plan_query(criterion, self.schema, self.plan, tracer=tracer)
            )
            if tracer.enabled:
                span.set_attributes(
                    {
                        "criterion": qplan.criterion_text,
                        "q": qplan.q,
                        "s": qplan.s,
                        "t": qplan.t,
                    }
                )
            start_msgs, start_bytes = net.stats.messages, net.stats.bytes

            ordered_subqueries = list(qplan.subqueries)
            if self.early_exit:
                # Local clauses are free; evaluate them first so an empty one
                # short-circuits before any cross-predicate SMC runs.
                ordered_subqueries.sort(key=lambda sq: sq.is_cross)

            anchors = qplan._anchors()  # where each clause is conjoined
            clause_sets: dict[str, set[int]] = {}  # anchor node -> glsns
            subquery_glsns: dict[str, list[int]] = {}
            for sq in ordered_subqueries:
                per_node: dict[str, set[int]] = {}
                for cp in sq.predicates:
                    node, glsns = await self._evaluate_predicate(
                        cp.predicate, qplan, net, deadline
                    )
                    per_node.setdefault(node, set()).update(glsns)
                clause_glsns = await self._merge_union(per_node, net, deadline)
                anchor = anchors[sq.index]
                subquery_glsns[sq.label] = sorted(clause_glsns)
                if anchor in clause_sets:
                    # Same anchor already holds another clause: conjoin locally.
                    clause_sets[anchor] &= clause_glsns
                else:
                    clause_sets[anchor] = set(clause_glsns)
                if self.early_exit and not clause_glsns:
                    # One empty clause empties the conjunction: stop here.
                    span.set_attribute("matches", 0)
                    return QueryResult(
                        plan=qplan,
                        glsns=[],
                        subquery_glsns=subquery_glsns,
                        messages=net.stats.messages - start_msgs,
                        bytes=net.stats.bytes - start_bytes,
                    )

            final = await self._merge_intersection(clause_sets, net, deadline, span)
            span.set_attribute("matches", len(final))
            return QueryResult(
                plan=qplan,
                glsns=sorted(final),
                subquery_glsns=subquery_glsns,
                messages=net.stats.messages - start_msgs,
                bytes=net.stats.bytes - start_bytes,
            )

    execute = sync_twin(execute_async)

    def aggregate(
        self,
        op: str,
        attribute: str,
        criterion: str | None = None,
        net: SimNetwork | None = None,
        deadline: Deadline | None = None,
    ) -> AggregateResult:
        """Confidential aggregate over ``attribute`` of matching records.

        ``op`` is one of ``sum``, ``count``, ``max``, ``min``.  Partial
        aggregates are computed by the attribute's owner node(s) and
        combined with the secure sum / secure ranking primitives, so with
        replicated (overlapping) plans no owner learns another's partial.
        """
        if op not in ("sum", "count", "max", "min"):
            raise AuditError(f"unknown aggregate op {op!r}")
        net = net or SimNetwork(tracer=self.ctx.tracer)
        with protocol_span(
            self.ctx, net, "query.aggregate", {"op": op, "attribute": attribute}
        ):
            return self._aggregate_inner(op, attribute, criterion, net, deadline)

    def _aggregate_inner(
        self,
        op: str,
        attribute: str,
        criterion: str | None,
        net: SimNetwork,
        deadline: Deadline | None = None,
    ) -> AggregateResult:
        if criterion is not None:
            matching: set[int] | None = set(
                self.execute(criterion, net=net, deadline=deadline).glsns
            )
        else:
            matching = None

        owners = self.plan.owners_of(attribute)
        partials: dict[str, list] = {}
        for owner in owners:
            partials[owner] = [
                value
                for glsn, value in self._projection(owner, attribute)
                if matching is None or glsn in matching
            ]

        matched = sum(len(v) for v in partials.values())
        if op == "count":
            counts = {owner: len(vals) for owner, vals in partials.items()}
            if len(counts) == 1:
                total = next(iter(counts.values()))
            else:
                # Replicated owners would double-count shared glsns under a
                # plain secure sum; the secure union of presence sets yields
                # the distinct cardinality without revealing who holds what.
                presence = {
                    owner: sorted(self._present_glsns(owner, attribute, matching))
                    for owner in owners
                }
                total = len(
                    secure_set_union(
                        self.ctx, presence, net=net, deadline=deadline
                    ).any_value
                )
            return AggregateResult(op=op, attribute=attribute, value=total, matched=matched)

        if op == "sum":
            scaled = {
                owner: sum(_scaled_values(attribute, owner, vals))
                for owner, vals in partials.items()
            }
            if len(scaled) == 1:
                total_scaled = next(iter(scaled.values()))
            else:
                total_scaled = secure_sum(
                    self.ctx, scaled, net=net, deadline=deadline
                ).any_value
            value = _unscaled(total_scaled, chain.from_iterable(partials.values()))
            return AggregateResult(op=op, attribute=attribute, value=value, matched=matched)

        # max / min: find the holder via secure ranking, then only the
        # holder reveals its partial extreme (that value IS the result).
        extremes = {}
        for owner, vals in partials.items():
            if vals:
                fn = max if op == "max" else min
                extremes[owner] = fn(_scaled_values(attribute, owner, vals))
        if not extremes:
            return AggregateResult(op=op, attribute=attribute, value=None, matched=0)
        if len(extremes) == 1:
            holder, scaled_value = next(iter(extremes.items()))
        else:
            self._session += 1
            ranking = secure_ranking(
                self.ctx,
                extremes,
                value_bound=self.value_bound,
                net=net,
                group_label=f"agg-{self._session}",
                deadline=deadline,
            )
            key = "argmax" if op == "max" else "argmin"
            holder = ranking.any_value[key]
            scaled_value = extremes[holder]
        raw = _unscaled(scaled_value, chain.from_iterable(partials.values()))
        return AggregateResult(
            op=op, attribute=attribute, value=raw, matched=matched, holder=holder
        )

    def aggregate_grouped(
        self,
        op: str,
        measure: str,
        group_by: str,
        criterion: str | None = None,
        min_group_size: int = 1,
        net: SimNetwork | None = None,
        deadline: Deadline | None = None,
    ) -> dict[object, AggregateResult]:
        """Confidential GROUP BY: per-group aggregates across two nodes.

        ``group_by`` values live on one node, ``measure`` values on
        another (or the same).  The group owner exposes, per group, only
        the member glsn set under a *blinded label*; the measure owner
        computes the per-label aggregate; labels are unblinded only for
        groups with at least ``min_group_size`` members — small groups
        (which could identify individuals, cf. ref [7]'s library patrons)
        are suppressed entirely.

        Returns ``group value -> AggregateResult`` for qualifying groups.
        """
        if op not in ("sum", "count", "max", "min"):
            raise AuditError(f"unknown aggregate op {op!r}")
        if min_group_size < 1:
            raise AuditError("min_group_size must be at least 1")
        net = net or SimNetwork(tracer=self.ctx.tracer)
        matching: set[int] | None = None
        if criterion is not None:
            matching = set(self.execute(criterion, net=net, deadline=deadline).glsns)

        group_node = self.plan.home_of(group_by)
        groups: dict[object, list[int]] = {}
        for glsn, value in self._projection(group_node, group_by):
            if matching is not None and glsn not in matching:
                continue
            groups.setdefault(value, []).append(glsn)

        measure_node = self.plan.home_of(measure)
        cross_node = measure_node != group_node
        if cross_node:
            self.ctx.leakage.record(
                "aggregate_grouped",
                measure_node,
                "group_membership",
                f"measure owner sees {len(groups)} blinded-label glsn groups",
            )
        measure_pairs = self._projection(measure_node, measure)

        out: dict[object, AggregateResult] = {}
        for value, glsns in sorted(groups.items(), key=lambda kv: repr(kv[0])):
            if len(glsns) < min_group_size:
                continue  # suppressed: the label is never unblinded
            members = set(glsns)
            samples = [v for glsn, v in measure_pairs if glsn in members]
            if op == "count":
                result: object = len(samples)
            elif not samples:
                result = None
            else:
                fold = {"sum": sum, "max": max, "min": min}[op]
                scaled = _scaled_values(measure, measure_node, samples)
                result = _unscaled(fold(scaled), samples)
            out[value] = AggregateResult(
                op=op, attribute=measure, value=result, matched=len(samples)
            )
        return out

    # -- predicate evaluation ---------------------------------------------------

    async def _evaluate_predicate(
        self,
        pred: Predicate,
        qplan: QueryPlan,
        net: SimNetwork,
        deadline: Deadline | None = None,
    ) -> tuple[str, set[int]]:
        """Returns ``(holder_node, satisfying glsns)``.

        The holder is the strategy's first node.  A cross predicate's other
        party holds the same result (the two-party ``∩ₛ`` and the blind-TTP
        comparison deliver to both), which is what lets the plan anchor the
        clause at either: :meth:`QueryPlan.describe`.

        With a sub-plan memo, whole cross-predicate SMC subplans (the
        expensive primitives: ``ssi``/``scmp``) are shared with later
        queries — keyed on the predicate, the plan's glsn floor and the
        participating stores' epochs, so a write on any involved node
        invalidates exactly the affected entries.  A shared result is a
        disclosure in its own right (the recipient query learns the
        outcome without running the rounds), so every reuse is recorded
        on the ledger.
        """
        strategy = qplan.strategies[str(pred)]
        memo = self._subplan_cache
        runs: list[SmcResult] = []
        if memo is None or strategy.primitive not in ("ssi", "scmp"):
            return await self._evaluate_predicate_uncached(
                pred, qplan, net, deadline, runs
            )
        key = (
            str(pred),
            strategy.primitive,
            tuple(
                (node, self.store.node_store(node).epoch)
                for node in strategy.nodes
            ),
            # A floored result is not the epochs' whole answer.
            qplan.floor,
        )
        # Get, compute, put.  Two racing computes (a sync call beside the
        # scheduler's worker) store equal values — the result is a pure
        # function of the epochs in the key.
        value = memo.get(key)
        if value is None:
            node, glsns = await self._evaluate_predicate_uncached(
                pred, qplan, net, deadline, runs
            )
            # A run that failover completed without some party is not the
            # epochs' answer: no later query may be served it.
            if not any(run.degraded for run in runs):
                memo.put(key, (node, frozenset(glsns)))
            return node, glsns
        node, glsns = value
        self.ctx.leakage.record(
            "scheduler",
            node,
            "coalesced_result",
            f"subplan {pred} served from an earlier query's "
            f"SMC run at equal store epochs",
        )
        return node, set(glsns)

    async def _evaluate_predicate_uncached(
        self,
        pred: Predicate,
        qplan: QueryPlan,
        net: SimNetwork,
        deadline: Deadline | None,
        runs: list[SmcResult],
    ) -> tuple[str, set[int]]:
        """One predicate's glsns at its anchor node; every SMC run it makes
        is appended to ``runs``."""
        strategy = qplan.strategies[str(pred)]
        floor = qplan.floor
        with protocol_span(
            self.ctx,
            net,
            "query.predicate",
            {
                "predicate": str(pred),
                "primitive": strategy.primitive,
                "nodes": list(strategy.nodes),
            },
        ) as span:
            if strategy.primitive == "scan":
                glsns = self._local_scan(strategy.nodes[0], pred, floor)
            elif strategy.primitive == "ssi":
                glsns = await self._cross_equality(
                    pred, strategy.nodes, net, deadline, span, runs, floor
                )
            elif strategy.primitive == "scmp":
                glsns = await self._cross_order(
                    pred, strategy.nodes, net, deadline, span, runs, floor
                )
            else:
                raise PlanningError(f"unknown strategy {strategy.primitive!r}")
            span.set_attribute("matches", len(glsns))
            return strategy.nodes[0], glsns

    def _projection(
        self, node_id: str, attribute: str, floor: int | None = None
    ) -> _Column:
        """One attribute's column on its owner node, of the rows at or
        above ``floor`` when one is given.

        A whole column is memoized per (node, attribute) at the store's
        epoch: any mutation of the owning store bumps its epoch, and the
        next query re-scans and replaces the column; stores untouched
        since the last query serve the cached column and skip the
        fragment scan entirely.  A floored column reads only the rows at
        or above the floor and is not kept.
        """
        store = self.store.node_store(node_id)
        if floor is not None:
            return _Column(store.fragments_from(floor), attribute)
        return self._projection_cache.get_or_compute(
            (node_id, attribute),
            lambda: _Column(store.scan(), attribute),
            version=store.epoch,
        )

    def _local_scan(
        self, node_id: str, pred: Predicate, floor: int | None = None
    ) -> set[int]:
        column = self._projection(node_id, pred.left.name, floor)
        if isinstance(pred.right, Constant):
            return column.match_constant(pred.op, pred.right.value)
        return column.match_column(
            pred.op, self._projection(node_id, pred.right.name, floor)
        )

    def _present_glsns(
        self,
        node_id: str,
        attribute: str,
        matching: set[int] | None = None,
        floor: int | None = None,
    ) -> set[int]:
        out = set(self._projection(node_id, attribute, floor).raw)
        if matching is not None:
            out &= matching
        return out

    async def _cross_equality(
        self,
        pred: Predicate,
        nodes: tuple[str, ...],
        net: SimNetwork,
        deadline: Deadline | None,
        span,
        runs: list[SmcResult],
        floor: int | None = None,
    ) -> set[int]:
        left_node, right_node = nodes[0], nodes[1]
        right_attr: AttributeRef = pred.right  # type: ignore[assignment]
        left_pairs = self._composite_set(left_node, pred.left.name, floor)
        right_pairs = self._composite_set(right_node, right_attr.name, floor)
        result = await secure_set_intersection_async(
            self.ctx,
            {left_node: sorted(left_pairs), right_node: sorted(right_pairs)},
            net=net,
            deadline=deadline,
        )
        runs.append(result)
        eq_glsns = {int(composite.split("|", 1)[0]) for composite in result.any_value}
        if pred.op == "=":
            return eq_glsns
        # "!=": common presence minus equality matches.
        common = await self._common_glsns(
            left_node, pred.left.name, right_node, right_attr.name,
            net, deadline, span, runs, floor,
        )
        return common - eq_glsns

    def _composite_set(
        self, node_id: str, attribute: str, floor: int | None = None
    ) -> set[str]:
        """``glsn|value`` composites — the secure equality-join elements."""
        return {
            f"{glsn}|{value}"
            for glsn, value in self._projection(node_id, attribute, floor)
        }

    async def _common_glsns(
        self,
        left_node: str,
        left_attr: str,
        right_node: str,
        right_attr: str,
        net: SimNetwork,
        deadline: Deadline | None = None,
        span=None,
        runs: list[SmcResult] | None = None,
        floor: int | None = None,
    ) -> set[int]:
        """The glsns carrying ``left_attr`` at its owner and ``right_attr`` at its
        (of those at or above ``floor`` when one is given: the presence
        sets and the indexes are then read from the floor up).

        Two representations of the same set.  The presence sets can be
        intersected (``∩ₛ``), or — when both owners index the same glsns —
        the *absent* sets (index minus presence) united and the union taken
        from the index: ``P_L ∩ P_R = I − (A_L ∪ A_R)``.  Either way each
        owner learns, for every glsn it holds a value for, whether the other
        does too, plus the other's set size and the overlap's, and nothing
        about glsns it lacks (``docs/threat-model.md`` "Alignment by
        complement"); the union's cost grows with sparsity, not with the
        log, and is zero modexps for two dense attributes.

        The choice uses only what the parties exchange anyway: whether
        their index digests match (in this one-process form, whether the two
        ``FragmentStore.glsns`` lists are equal) and the four set sizes.
        The union runs when its worst case is no dearer than the
        intersection's ``n·Σ|P_i|`` encryptions: disjoint absent sets cost
        ``n·Σ|A_i|`` encryptions and as many decryptions, and a decryption
        exponent is as long as the modulus where an encryption exponent has
        :data:`~repro.crypto.pohlig_hellman.SHORT_EXPONENT_BITS`.
        The SMC run is appended to ``runs`` when given.
        """
        runs = [] if runs is None else runs
        present = {
            left_node: self._present_glsns(left_node, left_attr, floor=floor),
            right_node: self._present_glsns(right_node, right_attr, floor=floor),
        }
        indexes = {
            node: (
                self.store.node_store(node).glsns
                if floor is None
                else self.store.node_store(node).glsns_from(floor)
            )
            for node in present
        }
        index_agree = indexes[left_node] == indexes[right_node]
        absent = {node: set(indexes[node]) - present[node] for node in present}
        decrypt_weight = max(1, self.ctx.prime.bit_length() // SHORT_EXPONENT_BITS)
        by_complement = index_agree and (1 + decrypt_weight) * sum(
            map(len, absent.values())
        ) <= sum(map(len, present.values()))
        if span is not None:
            span.set_attributes(
                {
                    "alignment": (
                        "absent-union" if by_complement else "present-intersection"
                    ),
                    "index_agree": index_agree,
                    "absent_sizes": {node: len(a) for node, a in absent.items()},
                }
            )
        if not index_agree:
            for node in present:
                self.ctx.leakage.record(
                    "query_alignment",
                    node,
                    "index_divergence",
                    f"the glsn indexes of {left_node} and {right_node} differ",
                )
        if by_complement:
            # Run even over two empty sets: the sizes are still exchanged.
            union = await secure_set_union_async(
                self.ctx,
                {node: sorted(glsns) for node, glsns in absent.items()},
                net=net,
                deadline=deadline,
            )
            runs.append(union)
            return set(indexes[left_node]) - set(union.any_value)
        result = await secure_set_intersection_async(
            self.ctx,
            {node: sorted(glsns) for node, glsns in present.items()},
            net=net,
            deadline=deadline,
        )
        runs.append(result)
        return set(result.any_value)

    def _scaled_column(
        self, node_id: str, attribute: str, pred: Predicate, floor: int | None = None
    ) -> dict[int, int]:
        """``glsn -> fixed-point value`` of one owner's attribute.

        Each owner checks its own column before any round is run, so a
        value the blind TTP could not order fails the query while nothing
        has been sent or disclosed yet.
        """
        scaled = {}
        for glsn, value in self._projection(node_id, attribute, floor):
            try:
                scaled[glsn] = _scaled_int(value)
            except (TypeError, ValueError) as exc:
                raise AuditError(
                    f"ordered cross predicate {pred} needs numeric values, but "
                    f"attribute {attribute!r} on {node_id} holds a non-numeric "
                    f"one (glsn {glsn:#x})"
                ) from exc
        return scaled

    async def _cross_order(
        self,
        pred: Predicate,
        nodes: tuple[str, ...],
        net: SimNetwork,
        deadline: Deadline | None,
        span,
        runs: list[SmcResult],
        floor: int | None = None,
    ) -> set[int]:
        left_node, right_node = nodes[0], nodes[1]
        right_attr: AttributeRef = pred.right  # type: ignore[assignment]
        left_scaled = self._scaled_column(left_node, pred.left.name, pred, floor)
        right_scaled = self._scaled_column(right_node, right_attr.name, pred, floor)
        ordered = sorted(
            await self._common_glsns(
                left_node, pred.left.name, right_node, right_attr.name,
                net, deadline, span, runs, floor,
            )
        )
        left_values = [left_scaled[g] for g in ordered]
        right_values = [right_scaled[g] for g in ordered]
        out: set[int] = set()
        if self.batch_compare:
            self._session += 1
            batch = await secure_compare_batch_async(
                self.ctx,
                (left_node, left_values),
                (right_node, right_values),
                value_bound=self.value_bound,
                net=net,
                session=f"qb-{self._session}",
                deadline=deadline,
            )
            runs.append(batch)
            for glsn, verdict in zip(ordered, batch.any_value):
                if evaluate_operator(pred.op, verdict):
                    out.add(glsn)
            return out
        for glsn, left_value, right_value in zip(ordered, left_values, right_values):
            self._session += 1
            compared = await secure_compare_async(
                self.ctx,
                (left_node, left_value),
                (right_node, right_value),
                value_bound=self.value_bound,
                net=net,
                session=f"q-{self._session}-{glsn}",
                deadline=deadline,
            )
            runs.append(compared)
            if evaluate_operator(pred.op, compared.any_value):
                out.add(glsn)
        return out

    # -- set merging ---------------------------------------------------------

    async def _merge_union(
        self,
        per_node: dict[str, set[int]],
        net: SimNetwork,
        deadline: Deadline | None = None,
    ) -> set[int]:
        """Disjunction inside a clause: secure union across holder nodes."""
        if not per_node:
            return set()
        if len(per_node) == 1:
            return set(next(iter(per_node.values())))
        with protocol_span(
            self.ctx, net, "query.merge_union", {"nodes": sorted(per_node)}
        ):
            result = await secure_set_union_async(
                self.ctx,
                {node: sorted(glsns) for node, glsns in per_node.items()},
                net=net,
                deadline=deadline,
            )
        return set(result.any_value)

    async def _merge_intersection(
        self,
        clause_sets: dict[str, set[int]],
        net: SimNetwork,
        deadline: Deadline | None,
        span,
    ) -> set[int]:
        """Final conjunction: secure set intersection keyed by glsn.

        ``clause_sets`` is already conjoined per anchor node, so the ring
        runs only between distinct anchors; ``span`` (``query.execute``)
        is told which it was.
        """
        if not clause_sets:
            return set()
        if len(clause_sets) == 1:
            ((anchor, glsns),) = clause_sets.items()
            span.set_attribute("conjunction", f"local@{anchor}")
            return set(glsns)
        if any(not glsns for glsns in clause_sets.values()):
            # An empty clause forces an empty conjunction; running the ring
            # with an empty set would only leak the other sets' sizes.
            return set()
        span.set_attribute("conjunction", "ssi")
        with protocol_span(
            self.ctx, net, "query.merge_intersection", {"nodes": sorted(clause_sets)}
        ):
            result = await secure_set_intersection_async(
                self.ctx,
                {node: sorted(glsns) for node, glsns in clause_sets.items()},
                net=net,
                deadline=deadline,
            )
        return set(result.any_value)

"""Distributed confidential query execution (paper §2 Figure 3, §4.2).

Evaluation strategy per plan element:

* **local predicate** — the owning DLA node scans its fragment store and
  produces the satisfying glsn set (pure local work, no disclosure);
* **cross equality** ``A = B`` — the two owner nodes build composite
  elements ``glsn|value`` and run the commutative-cipher secure set
  intersection; the surviving glsns satisfy the join.  ``A != B`` is the
  common glsns minus the equality matches;
* **cross order** ``A < B`` etc. — one batched blind-TTP secure
  comparison (§3.3's two-party case) over the common glsns, each owner
  having checked first that its own column is numeric;
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

A plan is bound before any ring (:meth:`QueryExecutor._bind`): every
predicate becomes a step with its protocol, parties, store epochs, input
columns and, for a cross predicate that aligns, its route; the final
conjunction is fixed there too.  :meth:`QueryExecutor.execute` then walks
the steps.  All SMC runs share one :class:`~repro.smc.base.SmcContext`, so
cost and leakage accounting cover the entire query.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter

from repro.audit.ast_nodes import AttributeRef, Constant, Predicate
from repro.audit.planner import QueryPlan, plan_query
from repro.cache import LruCache
from repro.crypto.pohlig_hellman import decrypt_weight
from repro.errors import AuditError, PlanningError
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.schema import GlobalSchema
from repro.logstore.store import DistributedLogStore
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline
from repro.smc.base import SmcContext, SmcResult, protocol_span
from repro.smc.comparison import evaluate_operator, secure_compare_batch
from repro.smc.intersection import secure_set_intersection
from repro.smc.ranking import secure_ranking
from repro.smc.sum_ import secure_sum
from repro.smc.union_ import secure_set_union

__all__ = ["QueryResult", "AggregateResult", "QueryExecutor"]

_NUMERIC_SCALE = 100  # fixed-point scale for decimal attribute comparison
_VALUE_BOUND = 2**40  # public a-priori bound on compared and ranked values


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

    Two derived views are built on first use, so a column only an
    aggregate reads never sorts and one only a predicate reads never
    scales: both typed halves sorted by value (:meth:`match_constant`
    bisects them) and every row's fixed-point integer (:meth:`scaled`).
    """

    def __init__(self, fragments, attribute: str) -> None:
        self.attribute = attribute
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
        self._sorted = None
        self._scaled = None

    def __iter__(self):
        return iter(self.raw.items())

    def _sorted_halves(self):
        """``((keys, glsns), (keys, glsns))`` of ``nums`` and ``texts``,
        each ascending by value; NaN rows, which no order holds, are left
        out (:meth:`match_constant` never asks them by order)."""
        halves = self._sorted
        if halves is None:
            halves = self._sorted = (
                _by_value({g: v for g, v in self.nums.items() if v == v}),
                _by_value(self.texts),
            )
        return halves

    def match_constant(self, op: str, constant) -> set[int]:
        """Glsns whose value satisfies ``value ⊙ constant``.

        ``<``, ``<=``, ``>``, ``>=`` and ``=`` are bisections of the
        sorted halves: the cost is the matches, not the column.  ``!=``
        and the rows the halves cannot hold go row by row.
        """
        text = str(constant)
        if op == "!=":
            out = {glsn for glsn, value in self.texts.items() if value != text}
        else:
            nums, texts = self._sorted_halves()
            out = set(_bisected(op, *texts, text))
        try:
            number = float(constant)
        except (TypeError, ValueError, ArithmeticError):
            # No float to hold the numeric rows against: they go by the row rule.
            untyped = [*self.nums, *self.rest]
        else:
            if op == "!=":
                out |= {g for g, value in self.nums.items() if value != number}
            elif number == number:  # NaN satisfies no ordered operator
                out.update(_bisected(op, *nums, number))
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

    def rows(self, matching: set[int] | None) -> list[int]:
        """This column's glsns, only those in ``matching`` when it is given
        (then in no particular order, at the cost of ``matching``)."""
        if matching is None:
            return list(self.raw)
        return list(filter(self.raw.__contains__, matching))

    def scaled(
        self, rows: list[int], node_id: str, use: str = "aggregate"
    ) -> tuple[list[int], bool]:
        """The fixed-point integers of ``rows`` (glsns of this column) and
        whether every one of their stored values is an ``int``.

        A value that is not a finite number is the query's fault, not a
        bug: the first of ``rows`` in glsn order that :func:`_scaled_int`
        fails on fails the ``use`` (an aggregate or an ordered cross
        predicate) with a typed error before any round is run (a negative
        one with that function's own error).
        """
        if self._scaled is None:
            self._scaled = _scale_all(self.raw)
        table, failed, non_int = self._scaled
        wanted = set(rows) if failed or non_int else ()
        for glsn in filter(wanted.__contains__, failed):
            try:
                _scaled_int(self.raw[glsn])
            except (TypeError, ValueError, OverflowError) as exc:
                raise AuditError(
                    f"{use} over {self.attribute!r} needs numeric values, but "
                    f"{node_id} holds a non-numeric one"
                ) from exc
        all_int = wanted.isdisjoint(non_int) if non_int else True
        return list(map(table.__getitem__, rows)), all_int


def _by_value(column: dict) -> tuple[list, list[int]]:
    """``column``'s values ascending and the glsns in that order."""
    glsns = sorted(column, key=column.__getitem__)
    return list(map(column.__getitem__, glsns)), glsns


def _bisected(op: str, keys: list, glsns: list[int], key) -> list[int]:
    """The glsns of the sorted ``keys`` that satisfy ``value ⊙ key`` for
    an ordered ``op`` (``=`` included)."""
    if op == "<":
        return glsns[: bisect_left(keys, key)]
    if op == "<=":
        return glsns[: bisect_right(keys, key)]
    if op == ">":
        return glsns[bisect_right(keys, key):]
    if op == ">=":
        return glsns[bisect_left(keys, key):]
    return glsns[bisect_left(keys, key) : bisect_right(keys, key)]


def _scale_all(raw: dict) -> tuple[dict[int, int], list[int], list[int]]:
    """Every row of ``raw`` through :func:`_scaled_int`: the glsn ->
    integer table, the glsns it raised on and the glsns whose value is
    not an ``int``, both in glsn order."""
    values = list(raw.values())
    is_int = map(isinstance, values, repeat(int))
    non_int = list(compress(raw, map(operator.not_, is_int)))
    try:
        # One pass of C calls; a row it cannot take, or a negative one,
        # sends the column through the row loop below to find which.
        scaled = map(operator.mul, map(float, values), repeat(_NUMERIC_SCALE))
        ints = list(map(round, scaled))
        if not ints or min(ints) >= 0:
            return dict(zip(raw, ints)), [], non_int
    except (TypeError, ValueError, ArithmeticError):
        pass
    table, failed = {}, []
    for glsn, value in raw.items():
        try:
            table[glsn] = _scaled_int(value)
        except (TypeError, ValueError, ArithmeticError, AuditError):
            failed.append(glsn)
    return table, failed, non_int


def _scaled_int(value) -> int:
    """Fixed-point integer encoding for blind-TTP order comparison."""
    number = float(value)
    scaled = round(number * _NUMERIC_SCALE)
    if scaled < 0:
        raise AuditError(
            f"ordered cross comparison requires non-negative values, got {value}"
        )
    return scaled


def _unscaled(scaled: int, all_int: bool) -> object:
    """A fixed-point aggregate in the samples' terms: ``int`` if all of them are."""
    if all_int:
        return scaled // _NUMERIC_SCALE
    return scaled / _NUMERIC_SCALE


@dataclass(frozen=True)
class _Alignment:
    """How the two parties of a cross predicate find the glsns both hold
    (:meth:`QueryExecutor._common_glsns`), fixed when the plan is bound.

    Binding decides from set sizes alone; the sets the chosen ring runs on
    are built from the step's columns and ``indexes`` when it runs, so a
    step the memo serves, or one an early exit skips, builds none.
    """

    route: str  # "absent-union" or "present-intersection"
    index_agree: bool
    absent_sizes: dict[str, int]  # party -> its index's glsns lacking its attribute
    indexes: tuple[list[int], ...]  # each party's glsn index, in party order


def _align(nodes, columns, indexes, weight: int) -> _Alignment:
    """The alignment of a cross predicate's two parties, from their columns
    (whose glsns are the presence sets) and their glsn ``indexes``.

    The choice uses only what the parties exchange anyway: whether
    their index digests match (in this one-process form, whether the two
    ``FragmentStore.glsns`` lists are equal) and the four set sizes.  A
    column's glsns are among its node's index, which
    :meth:`QueryExecutor._bind` reads after the column (only a delete
    racing the query takes a glsn out), so an absent set's size is the
    index's minus the column's.  The union runs when its worst case is no
    dearer than the intersection's ``n·Σ|P_i|`` encryptions: disjoint
    absent sets cost ``n·Σ|A_i|`` encryptions and as many decryptions, and
    a decryption costs ``weight`` encryptions
    (:func:`~repro.crypto.pohlig_hellman.decrypt_weight`).
    """
    present = [len(column.raw) for column in columns]
    absent = [len(glsns) - size for glsns, size in zip(indexes, present)]
    index_agree = indexes[0] == indexes[1]
    by_complement = index_agree and (1 + weight) * sum(absent) <= sum(present)
    route = "absent-union" if by_complement else "present-intersection"
    return _Alignment(route, index_agree, dict(zip(nodes, absent)), tuple(indexes))


@dataclass(frozen=True)
class _Step:
    """One predicate of a bound plan: its protocol, parties and inputs."""

    predicate: Predicate
    primitive: str  # "scan" | "ssi" | "scmp"
    nodes: tuple[str, ...]  # its parties; the first one holds the result
    # The sub-plan memo key: predicate, primitive, each party's
    # ``(node, epoch)`` (read before its column) and the plan's floor.
    key: tuple
    # The left attribute's column, then the right one's when it is an
    # attribute (on the second party of a cross predicate).
    columns: tuple[_Column, ...]
    alignment: _Alignment | None = None  # ``!=`` and ordered cross predicates


@dataclass(frozen=True)
class _Clause:
    """One clause (``SQ_i``) of a bound plan: the disjunction of its steps."""

    label: str
    anchor: str  # the node its glsn set is conjoined at
    steps: tuple[_Step, ...]


@dataclass(frozen=True)
class _BoundPlan:
    """A query plan with every protocol run fixed (:meth:`QueryExecutor._bind`)."""

    clauses: tuple[_Clause, ...]  # in evaluation order
    conjunction: str  # "local@<node>" or "ssi"


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
        projection_cache=None,
        subplan_cache=None,
    ) -> None:
        self.store = store
        self.ctx = ctx
        self.schema = schema
        self.plan: FragmentPlan = store.plan
        self._session = 0
        # Home of the typed columns (:meth:`_projection`); with the cache
        # kill switch off they are rebuilt per use.  The service passes
        # its one column cache to every executor it builds, so every query
        # builds a column once per (node, attribute, epoch) and keeps the
        # latest one.
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

    def execute(
        self,
        criterion: str | QueryPlan,
        net: SimNetwork | None = None,
        deadline: Deadline | None = None,
    ) -> QueryResult:
        """Evaluate an auditing criterion; returns the glsn-keyed result.

        The plan is bound first (:meth:`_bind`), then its steps run in
        order.  As soon as a clause comes back empty the conjunction is
        empty and no later step runs.  ``deadline`` propagates into every
        SMC round the plan triggers: each protocol launch (and, on a
        resilient net, each failover) checks the remaining budget and
        raises a typed :class:`~repro.errors.DeadlineExceededError` once
        spent.
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
            bound = self._bind(qplan)
            clause_sets: dict[str, set[int]] = {}  # anchor node -> glsns
            subquery_glsns: dict[str, list[int]] = {}
            glsns: list[int] = []
            for clause in bound.clauses:
                per_node: dict[str, set[int]] = {}  # holder -> glsns
                for step in clause.steps:
                    found = self._evaluate_predicate(step, net, deadline)
                    holder = step.nodes[0]
                    held = per_node.get(holder)
                    per_node[holder] = found if held is None else held | found
                clause_glsns = self._merge_union(per_node, net, deadline)
                subquery_glsns[clause.label] = sorted(clause_glsns)
                if not clause_glsns:
                    break  # one empty clause empties the conjunction
                held = clause_sets.get(clause.anchor)
                # An anchor already holding a clause conjoins locally.
                clause_sets[clause.anchor] = (
                    clause_glsns if held is None else held & clause_glsns
                )
            else:
                glsns = self._merge_intersection(
                    bound.conjunction, clause_sets, net, deadline, span
                )
            span.set_attribute("matches", len(glsns))
            return QueryResult(
                plan=qplan,
                glsns=glsns,
                subquery_glsns=subquery_glsns,
                messages=net.stats.messages - start_msgs,
                bytes=net.stats.bytes - start_bytes,
            )

    # benchmarks/e2e/layers.py pins this name; ROADMAP item 1(b) deletes it.
    def execute_async(self, *args, **kwargs): return self.execute(*args, **kwargs)

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
        owners = self.plan.owners_of(attribute)
        matching = self._matching(criterion, "aggregate", owners, net, deadline)
        columns = {owner: self._projection(owner, attribute) for owner in owners}
        rows = {owner: column.rows(matching) for owner, column in columns.items()}

        matched = sum(map(len, rows.values()))
        if op == "count":
            if len(owners) == 1:
                total = matched
            else:
                # Replicated owners would double-count shared glsns under a
                # plain secure sum; the secure union of presence sets yields
                # the distinct cardinality without revealing who holds what.
                presence = {owner: sorted(rows[owner]) for owner in owners}
                total = len(
                    secure_set_union(
                        self.ctx, presence, net=net, deadline=deadline
                    ).any_value
                )
            return AggregateResult(op=op, attribute=attribute, value=total, matched=matched)

        if op == "sum":
            scaled, all_int = {}, True
            for owner, column in columns.items():
                ints, owner_int = column.scaled(rows[owner], owner)
                scaled[owner] = sum(ints)
                all_int = all_int and owner_int
            if len(scaled) == 1:
                total_scaled = next(iter(scaled.values()))
            else:
                total_scaled = secure_sum(
                    self.ctx, scaled, net=net, deadline=deadline
                ).any_value
            value = _unscaled(total_scaled, all_int)
            return AggregateResult(op=op, attribute=attribute, value=value, matched=matched)

        # max / min: find the holder via secure ranking, then only the
        # holder reveals its partial extreme (that value IS the result).
        extremes, all_int = {}, True
        fn = max if op == "max" else min
        for owner, column in columns.items():
            if rows[owner]:
                ints, owner_int = column.scaled(rows[owner], owner)
                extremes[owner] = fn(ints)
                all_int = all_int and owner_int
        if not extremes:
            return AggregateResult(op=op, attribute=attribute, value=None, matched=0)
        if len(extremes) == 1:
            holder, scaled_value = next(iter(extremes.items()))
        else:
            self._session += 1
            ranking = secure_ranking(
                self.ctx,
                extremes,
                value_bound=_VALUE_BOUND,
                net=net,
                group_label=f"agg-{self._session}",
                deadline=deadline,
            )
            key = "argmax" if op == "max" else "argmin"
            holder = ranking.any_value[key]
            scaled_value = extremes[holder]
        raw = _unscaled(scaled_value, all_int)
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
        group_node = self.plan.home_of(group_by)
        measure_node = self.plan.home_of(measure)
        matching = self._matching(
            criterion, "aggregate_grouped", {group_node, measure_node}, net, deadline
        )
        groups: dict[object, list[int]] = {}
        for glsn, value in self._projection(group_node, group_by):
            if matching is not None and glsn not in matching:
                continue
            groups.setdefault(value, []).append(glsn)

        cross_node = measure_node != group_node
        if cross_node:
            self.ctx.leakage.record(
                "aggregate_grouped",
                measure_node,
                "group_membership",
                f"measure owner sees {len(groups)} blinded-label glsn groups",
            )
        measure_column = self._projection(measure_node, measure)

        out: dict[object, AggregateResult] = {}
        for value, glsns in sorted(groups.items(), key=lambda kv: repr(kv[0])):
            if len(glsns) < min_group_size:
                continue  # suppressed: the label is never unblinded
            samples = measure_column.rows(set(glsns))
            if op == "count":
                result: object = len(samples)
            elif not samples:
                result = None
            else:
                fold = {"sum": sum, "max": max, "min": min}[op]
                scaled, all_int = measure_column.scaled(samples, measure_node)
                result = _unscaled(fold(scaled), all_int)
            out[value] = AggregateResult(
                op=op, attribute=measure, value=result, matched=len(samples)
            )
        return out

    def _matching(
        self,
        criterion: str | None,
        protocol: str,
        owners,
        net: SimNetwork,
        deadline: Deadline | None,
    ) -> set[int] | None:
        """The criterion's glsns, for ``owners`` to filter their columns by.

        Each owner that filters learns which of its rows matched.  Where
        the criterion read another node's attributes that is a disclosure
        (``result_membership``); a criterion on the owner's own attributes
        tells it nothing it does not hold.
        """
        if criterion is None:
            return None
        result = self.execute(criterion, net=net, deadline=deadline)
        read = {node for s in result.plan.strategies.values() for node in s.nodes}
        for owner in sorted(owners):
            if read - {owner}:
                self.ctx.leakage.record(
                    protocol, owner, "result_membership",
                    f"owner learns which of its rows match "
                    f"{result.plan.criterion_text!r} ({len(result.glsns)} glsns)",
                )
        return set(result.glsns)

    # -- binding ----------------------------------------------------------------

    def _bind(self, qplan: QueryPlan) -> _BoundPlan:
        """Fix every protocol run of ``qplan`` before any ring.

        Steps come in evaluation order: the local clauses first (they are
        free, and an empty one ends the query before any cross ring), each
        clause's predicates together.  Each step reads its parties' store
        epochs, then their columns, so a column is never older than the
        memo key it is stored under.  An alignment step's route is chosen
        here, from its parties' indexes and the sizes of their presence
        sets (:func:`_align`).  Binding draws no
        randomness, records no disclosure and sends nothing; every
        disclosure and check happens when its step runs.
        """
        floor = qplan.floor

        def column(node: str, attribute: str) -> _Column:
            if floor is None:
                return self._projection(node, attribute)
            return _Column(self.store.node_store(node).fragments_from(floor), attribute)

        def index(node: str) -> list[int]:
            store = self.store.node_store(node)
            return store.glsns if floor is None else store.glsns_from(floor)

        anchors = qplan._anchors()
        weight = None
        clauses = []
        for sq in sorted(qplan.subqueries, key=attrgetter("is_cross")):
            steps = []
            for cp in sq.predicates:
                pred = cp.predicate
                strategy = qplan.strategies[str(pred)]
                nodes, primitive = strategy.nodes, strategy.primitive
                if primitive not in ("scan", "ssi", "scmp"):
                    raise PlanningError(f"unknown strategy {primitive!r}")
                epochs = tuple(
                    (node, self.store.node_store(node).epoch) for node in nodes
                )
                attributes = [pred.left.name]
                if isinstance(pred.right, AttributeRef):
                    attributes.append(pred.right.name)
                # A local predicate's columns are all on its one node.
                homes = nodes if primitive != "scan" else nodes * len(attributes)
                columns = tuple(map(column, homes, attributes))
                alignment = None
                if primitive == "scmp" or (primitive == "ssi" and pred.op == "!="):
                    if weight is None:
                        weight = decrypt_weight(self.ctx.prime)
                    alignment = _align(nodes, columns, list(map(index, nodes)), weight)
                steps.append(
                    _Step(
                        pred, primitive, nodes,
                        (str(pred), primitive, epochs, floor), columns, alignment,
                    )
                )
            clauses.append(_Clause(sq.label, anchors[sq.index], tuple(steps)))
        distinct = set(anchors.values())
        conjunction = "ssi" if len(distinct) > 1 else f"local@{distinct.pop()}"
        return _BoundPlan(tuple(clauses), conjunction)

    # -- predicate evaluation ---------------------------------------------------

    def _evaluate_predicate(
        self, step: _Step, net: SimNetwork, deadline: Deadline | None = None
    ) -> set[int]:
        """The glsns satisfying ``step``'s predicate, held by its first node.

        A cross predicate's other party holds the same result (the two-party
        ``∩ₛ`` and the blind-TTP comparison deliver to both), which is what
        lets the plan anchor the clause at either: :meth:`QueryPlan.describe`.

        With a sub-plan memo, whole cross-predicate SMC subplans (the
        expensive primitives: ``ssi``/``scmp``) are shared with later
        queries — keyed on the predicate, the plan's glsn floor and the
        participating stores' epochs, so a write on any involved node
        invalidates exactly the affected entries.  A shared result is a
        disclosure in its own right (the recipient query learns the
        outcome without running the rounds), so every reuse is recorded
        on the ledger.  The returned set may be the memo's own
        ``frozenset``: callers never mutate it.
        """
        memo = self._subplan_cache if step.primitive != "scan" else None
        # Get, compute, put.  Two racing computes (a sync call beside a
        # scheduled query) store equal values — the result is a pure
        # function of the epochs in the key.
        glsns = None if memo is None else memo.get(step.key)
        if glsns is not None:
            self.ctx.leakage.record(
                "scheduler",
                step.nodes[0],
                "coalesced_result",
                f"subplan {step.predicate} served from an earlier query's "
                f"SMC run at equal store epochs",
            )
            return glsns
        runs: list[SmcResult] = []  # every SMC run the step makes
        with protocol_span(
            self.ctx,
            net,
            "query.predicate",
            {
                "predicate": str(step.predicate),
                "primitive": step.primitive,
                "nodes": list(step.nodes),
            },
        ) as span:
            if step.primitive == "scan":
                glsns = self._local_scan(step)
            elif step.primitive == "ssi":
                glsns = self._cross_equality(step, net, deadline, span, runs)
            else:
                glsns = self._cross_order(step, net, deadline, span, runs)
            span.set_attribute("matches", len(glsns))
        # A run that failover completed without some party is not the
        # epochs' answer: no later query may be served it.
        if memo is not None and not any(run.degraded for run in runs):
            memo.put(step.key, frozenset(glsns))
        return glsns

    def _projection(self, node_id: str, attribute: str) -> _Column:
        """One attribute's whole column on its owner node.

        A whole column is memoized per (node, attribute) at the store's
        epoch: any mutation of the owning store bumps its epoch, and the
        next query re-scans and replaces the column; stores untouched
        since the last query serve the cached column and skip the
        fragment scan entirely.  (A floored column, of the rows at or
        above a plan's floor, is built by :meth:`_bind` and not kept.)
        """
        store = self.store.node_store(node_id)
        return self._projection_cache.get_or_compute(
            (node_id, attribute),
            lambda: _Column(store.scan(), attribute),
            version=store.epoch,
        )

    def _local_scan(self, step: _Step) -> set[int]:
        pred, column = step.predicate, step.columns[0]
        if isinstance(pred.right, Constant):
            return column.match_constant(pred.op, pred.right.value)
        return column.match_column(pred.op, step.columns[1])

    def _cross_equality(
        self,
        step: _Step,
        net: SimNetwork,
        deadline: Deadline | None,
        span,
        runs: list[SmcResult],
    ) -> set[int]:
        # ``glsn|value`` composites are the secure equality-join elements.
        result = secure_set_intersection(
            self.ctx,
            {
                node: sorted(f"{glsn}|{value}" for glsn, value in column)
                for node, column in zip(step.nodes, step.columns)
            },
            net=net,
            deadline=deadline,
        )
        runs.append(result)
        eq_glsns = {int(composite.split("|", 1)[0]) for composite in result.any_value}
        if step.predicate.op == "=":
            return eq_glsns
        # "!=": common presence minus equality matches.
        return self._common_glsns(step, net, deadline, span, runs) - eq_glsns

    def _common_glsns(
        self,
        step: _Step,
        net: SimNetwork,
        deadline: Deadline | None = None,
        span=None,
        runs: list[SmcResult] | None = None,
    ) -> set[int]:
        """The glsns carrying both of ``step``'s attributes, each at its owner,
        by the route :func:`_align` bound.

        Two representations of the same set.  The presence sets can be
        intersected (``∩ₛ``), or — when both owners index the same glsns —
        the *absent* sets (index minus presence) united and the union taken
        from the index: ``P_L ∩ P_R = I − (A_L ∪ A_R)``.  Either way each
        owner learns, for every glsn it holds a value for, whether the other
        does too, plus the other's set size and the overlap's, and nothing
        about glsns it lacks (``docs/threat-model.md`` "Alignment by
        complement"); the union's cost grows with sparsity, not with the
        log, and is zero modexps for two dense attributes.
        The SMC run is appended to ``runs`` when given.
        """
        runs = [] if runs is None else runs
        alignment = step.alignment
        if span is not None:
            span.set_attributes(
                {
                    "alignment": alignment.route,
                    "index_agree": alignment.index_agree,
                    "absent_sizes": alignment.absent_sizes,
                }
            )
        if not alignment.index_agree:
            left_node, right_node = step.nodes
            for node in step.nodes:
                self.ctx.leakage.record(
                    "query_alignment",
                    node,
                    "index_divergence",
                    f"the glsn indexes of {left_node} and {right_node} differ",
                )
        parties = list(zip(step.nodes, step.columns, alignment.indexes))
        if alignment.route == "absent-union":
            # Run even over two empty sets: the sizes are still exchanged.
            union = secure_set_union(
                self.ctx,
                {
                    node: sorted(set(glsns).difference(column.raw))
                    for node, column, glsns in parties
                },
                net=net,
                deadline=deadline,
            )
            runs.append(union)
            return set(alignment.indexes[0]).difference(union.any_value)
        result = secure_set_intersection(
            self.ctx,
            {node: sorted(column.raw) for node, column, _ in parties},
            net=net,
            deadline=deadline,
        )
        runs.append(result)
        return set(result.any_value)

    def _cross_order(
        self,
        step: _Step,
        net: SimNetwork,
        deadline: Deadline | None,
        span,
        runs: list[SmcResult],
    ) -> set[int]:
        (left_node, right_node), (left, right) = step.nodes, step.columns
        # Each owner checks its whole column before any round is run, so a
        # value the blind TTP could not order fails the query while nothing
        # has been sent or disclosed yet.
        for node_id, column in zip(step.nodes, step.columns):
            column.scaled(
                list(column.raw), node_id, f"ordered cross predicate {step.predicate}"
            )
        ordered = sorted(self._common_glsns(step, net, deadline, span, runs))
        left_values, _ = left.scaled(ordered, left_node)
        right_values, _ = right.scaled(ordered, right_node)
        self._session += 1
        batch = secure_compare_batch(
            self.ctx,
            (left_node, left_values),
            (right_node, right_values),
            value_bound=_VALUE_BOUND,
            net=net,
            session=f"qb-{self._session}",
            deadline=deadline,
        )
        runs.append(batch)
        return {
            glsn
            for glsn, verdict in zip(ordered, batch.any_value)
            if evaluate_operator(step.predicate.op, verdict)
        }

    # -- set merging ---------------------------------------------------------

    def _merge_union(
        self,
        per_node: dict[str, set[int]],
        net: SimNetwork,
        deadline: Deadline | None = None,
    ) -> set[int]:
        """Disjunction inside a clause: secure union across holder nodes."""
        if len(per_node) == 1:
            return next(iter(per_node.values()))
        with protocol_span(
            self.ctx, net, "query.merge_union", {"nodes": sorted(per_node)}
        ):
            result = secure_set_union(
                self.ctx,
                {node: sorted(glsns) for node, glsns in per_node.items()},
                net=net,
                deadline=deadline,
            )
        return set(result.any_value)

    def _merge_intersection(
        self,
        conjunction: str,
        clause_sets: dict[str, set[int]],
        net: SimNetwork,
        deadline: Deadline | None,
        span,
    ) -> list[int]:
        """Final conjunction, sorted: the one anchor's set, or (``"ssi"``) a
        secure set intersection keyed by glsn between the distinct anchors;
        ``span`` (``query.execute``) is told which it was.

        ``clause_sets`` is already conjoined per anchor node.
        """
        if conjunction == "ssi" and not all(clause_sets.values()):
            # Two clauses at one anchor conjoined to nothing; running the ring
            # with an empty set would only leak the other sets' sizes.
            return []
        span.set_attribute("conjunction", conjunction)
        if conjunction != "ssi":
            (glsns,) = clause_sets.values()
            return sorted(glsns)
        with protocol_span(
            self.ctx, net, "query.merge_intersection", {"nodes": sorted(clause_sets)}
        ):
            result = secure_set_intersection(
                self.ctx,
                {node: sorted(glsns) for node, glsns in clause_sets.items()},
                net=net,
                deadline=deadline,
            )
        return sorted(result.any_value)

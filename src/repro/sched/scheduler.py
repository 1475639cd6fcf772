"""Audit-query scheduler: each query runs in the thread that submits it.

The paper's DLA service fields queries from many independent auditors
(§2, §4.2).  :meth:`QueryScheduler.submit` plans and runs its query
before it returns, in the caller's thread, and hands back a settled
:class:`QueryHandle`.  Every query is a chain of modexp rings inside this
process, so handing it to another thread would only take turns on the
same interpreter: what a burst gains is the sharing below.

* **Isolation** — every query runs in the service's one per-query scope,
  the one a sync call runs in too: its own
  :class:`~repro.smc.base.SmcContext` (private RNG stream ``sched:{seq}``,
  crypto counter, leakage ledger) and its own
  :class:`~repro.net.simnet.SimNetwork`, so a party's view holds its own
  query's frames and nothing else, and per-query cost reports are exact.
  Ledgers merge into the service-wide ones *grouped per query*.
* **Coalescing** (``REPRO_SCHED_COALESCE``, read once into
  ``service.coalesce``, which each query reads as it starts) — a result
  already computed at equal store epochs is reused, keyed so that sharing
  is invalidation-safe: cross-predicate SMC subplans (the service's one
  ``query.subplan`` memo, which its sync calls read and write too) and
  whole queries with equal plan fingerprints at equal epochs (the
  service's ``query_memo``, ``sched.query``, which only :meth:`submit`
  reads).  The attribute columns
  (``query.projection``) are node-local and every query reads them,
  coalescing or not.  Each level is get, compute, put: a query that
  fails, or that failover completed without some party, stores nothing,
  so the next equal query computes afresh.  A
  fanned-out query's ledger, and a reused sub-plan's, records the
  ``coalesced_result`` disclosure explicitly.
* **Deadlines** — ``submit(criterion, timeout=...)`` starts the
  :class:`~repro.resilience.Deadline` at submit; a query whose budget is
  spent before it starts fails with the typed error without consuming
  cluster work.
* **Failures** — a query's exception is stored on its handle, and
  :meth:`QueryHandle.result` / :meth:`gather` re-raise it.

:meth:`submit`, :meth:`gather` and :meth:`coalesce_stats` are plain
methods, callable from any thread; queries submitted from several threads
at once run at once, each in its own scope, as sync calls do.

Every query it answers feeds the confidentiality observatory — a
coalesced one with its one ``coalesced_result`` event.  Standing queries
(:mod:`repro.sched.standing`) never come through here: an ingest runs its
epoch's plans on its own thread.

Observability: per-query ``sched.query`` spans, plus the submitted,
completed and failed counts ``/metrics`` reads as the ``repro_sched_*``
families.  Each query's network traffic, reliability events, node health
and crypto ops are folded into the service-wide ledgers when it ends.
"""

from __future__ import annotations

import threading
import time

from repro.audit.executor import QueryResult
from repro.audit.planner import QueryPlan, plan_query
from repro.net.stats import CostReport
from repro.resilience.policy import Deadline
from repro.smc.leakage import LeakageEvent

__all__ = ["QueryHandle", "QueryScheduler"]


class QueryHandle:
    """A submitted query's outcome: result, cost, and leakage in one place."""

    def __init__(self, seq: int, criterion, deadline: Deadline) -> None:
        self.seq = seq
        self.criterion = criterion
        self.deadline = deadline
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: True when the result was fanned out from an earlier identical
        #: query instead of being computed by this one.
        self.coalesced = False
        #: Per-query :class:`~repro.net.stats.CostReport` (the traffic of
        #: its private network + this query's own crypto ops).
        self.cost: CostReport | None = None
        #: This query's private leakage events, in causal order.
        self.leakage: list[LeakageEvent] = []
        self._result: QueryResult | None = None
        self._exception: BaseException | None = None

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def latency(self) -> float | None:
        """Submit-to-finish seconds (planning and running); None if running."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def exception(self) -> BaseException | None:
        return self._exception

    def result(self) -> QueryResult:
        """The query's result; re-raise its failure if any."""
        if self._exception is not None:
            raise self._exception
        return self._result  # type: ignore[return-value]


class QueryScheduler:
    """Runs each submitted query in the caller's thread, in its own scope.

    Built over one service deployment, whose per-query scope runs each
    query: an isolated context over a network of its own, sharing the
    service's stores, schema, prime, engine and column cache.  While
    ``service.coalesce`` is on, queries also read and fill the service's
    sub-plan and whole-query memos
    (:attr:`ConfidentialAuditingService.subplan_memo
    <repro.core.service.ConfidentialAuditingService.subplan_memo>` and
    ``query_memo``, which outlive any scheduler built over the service).
    """

    def __init__(self, service) -> None:
        self.service = service
        self._seq = 0
        #: Guards the sequence number and the counts of queries admitted,
        #: completed and failed.
        self._state_lock = threading.Lock()
        self.submitted = self.completed = self.failed = 0

    def submit(self, criterion, timeout: float | None = None) -> QueryHandle:
        """Plan and run one query now; returns its settled handle.

        ``criterion`` is a criterion string or a pre-built
        :class:`~repro.audit.planner.QueryPlan`.  ``timeout`` starts the
        query's deadline *now*.  A failure does not raise here: it is kept
        on the handle, for :meth:`QueryHandle.result` and :meth:`gather`.
        """
        with self._state_lock:
            self._seq += 1
            handle = QueryHandle(self._seq, criterion, Deadline.after(timeout))
            self.submitted += 1
        try:
            handle._result = self._run(handle)
        except Exception as exc:  # typed repro errors and genuine bugs alike
            handle._exception = exc
        handle.finished_at = time.perf_counter()
        with self._state_lock:
            if handle._exception is None:
                self.completed += 1
            else:
                self.failed += 1
        return handle

    def gather(self, handles: list[QueryHandle]) -> list[QueryResult]:
        """Results of ``handles`` in submission order (first failure raises)."""
        return [handle.result() for handle in handles]

    def _run(self, handle: QueryHandle) -> QueryResult:
        """Plan and run the query, or serve it an equal earlier result."""
        handle.started_at = time.perf_counter()
        handle.deadline.check(f"sched.admission[q{handle.seq}]")
        qplan = (
            handle.criterion
            if isinstance(handle.criterion, QueryPlan)
            else plan_query(
                handle.criterion,
                self.service.schema,
                self.service.store.plan,
                tracer=self.service.tracer,
            )
        )
        if not self.service.coalesce:
            return self._execute(handle, qplan)
        memo = self.service.query_memo
        key = (qplan.fingerprint(), self.service.store.epochs)
        value = memo.get(key)
        if value is not None:
            return self._fan_out(handle, qplan, value)
        value = self._execute(handle, qplan)
        # A run that failover completed without some party is not the
        # epochs' answer: no later query may be served it.
        if not any(e.category == "degraded_result" for e in handle.leakage):
            memo.put(key, value)
        return value

    # -- execution ---------------------------------------------------------

    def _execute(self, handle: QueryHandle, qplan: QueryPlan) -> QueryResult:
        service = self.service
        span_attrs = {"criterion": qplan.criterion_text, "query": f"q{handle.seq}"}
        with service._query_scope(f"sched:{handle.seq}") as scope:
            try:
                with service.tracer.span("sched.query", span_attrs) as span:
                    result = scope.executor.execute(
                        qplan, net=scope.net, deadline=handle.deadline
                    )
                    if service.tracer.enabled:
                        span.set_attribute("matches", len(result.glsns))
                # Scheduled queries feed the confidentiality observatory
                # too (it is thread-safe); leakage is this query's ledger.
                service.observe_query_result(result, scope.ctx.leakage.count())
                return result
            finally:
                # Cost and leakage are attributed even on failure: the
                # query spent the traffic and disclosed the entries anyway.
                handle.cost = scope.cost()
                handle.leakage = scope.ctx.leakage.events

    def _fan_out(
        self, handle: QueryHandle, qplan: QueryPlan, value: QueryResult
    ) -> QueryResult:
        """Hand a coalesced query its private copy of the shared result."""
        handle.coalesced = True
        handle.cost = CostReport(messages=0, bytes=0, crypto_ops={})
        events = [
            LeakageEvent(
                "scheduler",
                "*",
                "coalesced_result",
                f"query #{handle.seq} fanned out from an earlier identical "
                f"query (equal plan fingerprint at equal store epochs)",
            )
        ]
        handle.leakage = events
        self.service.ctx.leakage.extend(events)
        result = QueryResult(
            plan=qplan,
            glsns=list(value.glsns),
            subquery_glsns={k: list(v) for k, v in value.subquery_glsns.items()},
            messages=value.messages,
            bytes=value.bytes,
        )
        # A fanned-out answer is disclosed to its auditor all the same.
        self.service.observe_query_result(result, len(events))
        return result

    # -- introspection -----------------------------------------------------

    def coalesce_stats(self) -> dict:
        """Hit/miss counts per sharing level (empty when disabled).

        ``joins`` is always 0: a query never waits for an equal one still
        computing; it computes for itself.
        """
        service = self.service
        if not service.coalesce:
            return {}
        out: dict = {}
        for cache in (service.column_cache, service.subplan_memo, service.query_memo):
            s = cache.stats
            out[cache.name] = {"hits": s.hits, "misses": s.misses, "joins": 0}
        return out

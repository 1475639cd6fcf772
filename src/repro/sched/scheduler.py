"""Audit-query scheduler: a FIFO queue drained on one worker thread.

The paper's DLA service fields queries from many independent auditors
(§2, §4.2).  :class:`QueryScheduler` admits them without blocking and
runs them one at a time, in submission order, on one lazily started
daemon thread (``repro-sched``).  Every query is a chain of modexp rings
inside this process, so two queries running at once would only take
turns on the same interpreter: what a burst gains is the sharing below,
which a serial drain keeps whole.

* **Admission** — :meth:`submit` puts the query's handle on a
  :class:`queue.SimpleQueue` and returns at once; the worker takes the
  handles in order and runs each through the sync executor path.
* **Isolation** — every query gets its own
  :class:`~repro.smc.base.SmcContext` (private RNG stream, crypto
  counter, leakage ledger) and its own
  :class:`~repro.net.simnet.SimNetwork` — the same private network a
  sync call gets — so a party's view holds its own query's frames and
  nothing else, and per-query cost reports are exact.  Ledgers merge
  into the service-wide ones *grouped per query*.
* **Coalescing** (``REPRO_SCHED_COALESCE``) — work already done at equal
  store epochs is reused, keyed so that sharing is invalidation-safe:
  attribute columns (the service executor's ``query.projection``
  cache), cross-predicate SMC subplans (the service's one
  ``query.subplan`` memo, which its sync calls read and write too) and
  whole queries with equal plan fingerprints at equal epochs
  (``sched.query``).  Each level is get, compute, put: a query that
  fails, or that failover completed without some party, stores nothing,
  so the next equal query computes afresh.  A
  fanned-out query's ledger, and a reused sub-plan's, records the
  ``coalesced_result`` disclosure explicitly.
* **Deadlines** — ``submit(criterion, timeout=...)`` starts the
  :class:`~repro.resilience.Deadline` at *admission*, so time spent
  queued counts; a query that expires before it starts fails with the
  typed error without consuming cluster work.

:meth:`submit`, :meth:`gather`, :meth:`coalesce_stats` and
:meth:`shutdown` are plain methods, callable from any thread.

Every query it answers feeds the confidentiality observatory — a
coalesced one with its one ``coalesced_result`` event — except a
standing query's evaluation (:mod:`repro.sched.standing`), whose pushed
deltas are observed instead.

Observability: per-query ``sched.query`` spans, plus the counts
``/metrics`` reads as the ``repro_sched_*`` families (queue depth,
in-flight, an admission-wait histogram, submitted/completed/failed
counters).  Each query's network traffic, reliability events, node
health and crypto ops are folded into the service-wide ledgers when it
ends.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.audit.executor import QueryExecutor, QueryResult
from repro.audit.planner import QueryPlan, plan_query
from repro.cache import LruCache
from repro.errors import SchedulerError, SchedulerShutdownError
from repro.net.stats import CostReport
from repro.obs.metrics import LATENCY_BUCKETS_SECONDS, Histogram
from repro.resilience.policy import Deadline
from repro.smc.base import SmcContext
from repro.smc.leakage import LeakageEvent

__all__ = ["QueryHandle", "QueryScheduler"]

#: Queued after the last handle by :meth:`QueryScheduler.shutdown`.
_STOP = None


class QueryHandle:
    """A submitted query's future: result, cost, and leakage in one place."""

    #: Whether the run feeds the confidentiality observatory; a standing
    #: query's runs do not (its deltas do).
    observe = True

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
        self._event = threading.Event()
        self._result: QueryResult | None = None
        self._exception: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def latency(self) -> float | None:
        """Submit-to-finish seconds (includes queue wait); None if running."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def exception(self) -> BaseException | None:
        return self._exception if self.done else None

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until the query finishes; re-raise its failure if any."""
        if not self._event.wait(timeout):
            raise SchedulerError(
                f"query #{self.seq} still running after {timeout}s"
            )
        if self._exception is not None:
            raise self._exception
        return self._result  # type: ignore[return-value]

    def _resolve(self, result: QueryResult) -> None:
        self._result = result
        self.finished_at = time.perf_counter()
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._exception = exc
        self.finished_at = time.perf_counter()
        self._event.set()


class QueryScheduler:
    """Admits queries at once and runs them one at a time, in order.

    Built over one service deployment: the scheduler shares the service's
    stores, schema, prime, engine, and hashed-encoder memo, but runs each
    query in an isolated context over a network of its own.
    ``coalesce`` defaults to the service's own decision
    (``service.coalesce``, which is ``REPRO_SCHED_COALESCE`` when the
    service was built); an explicit argument decides for this scheduler
    only.  On, its queries read and fill the service's column cache and
    sub-plan memo (:attr:`ConfidentialAuditingService.subplan_memo
    <repro.core.service.ConfidentialAuditingService.subplan_memo>`),
    whose entries outlive :meth:`shutdown`.
    """

    def __init__(self, service, coalesce: bool | None = None) -> None:
        self.coalesce = service.coalesce if coalesce is None else coalesce
        self.service = service
        self._seq = 0
        self._state_lock = threading.Lock()
        self._closed = False
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        #: The ``repro-sched`` worker, started by the first :meth:`submit`.
        self._worker: threading.Thread | None = None
        #: Handles queued and not yet started, whether a query is executing
        #: now (0 or 1), and the counts of queries admitted, completed and
        #: failed (all under the state lock).
        self._waiting = 0
        self.in_flight = 0
        self.submitted = self.completed = self.failed = 0
        self.admission_wait = Histogram(LATENCY_BUCKETS_SECONDS)
        if self.coalesce:
            self._column_cache = service.executor._projection_cache
            self._query_cache = LruCache("sched.query")
        else:
            self._column_cache = None
            self._query_cache = None

    # -- admission ---------------------------------------------------------

    def submit(self, criterion, timeout: float | None = None) -> QueryHandle:
        """Admit one query; returns immediately with its handle.

        ``criterion`` is a criterion string or a pre-built
        :class:`~repro.audit.planner.QueryPlan`.  ``timeout`` starts the
        query's deadline *now* — time spent queued behind earlier queries
        spends it.  Admission itself never blocks.
        """
        return self._admit(criterion, timeout)

    def _admit(
        self, criterion, timeout: float | None = None, observe: bool = True
    ) -> QueryHandle:
        """:meth:`submit`; ``observe=False`` keeps the run out of the
        confidentiality observatory (a standing query's epoch)."""
        with self._state_lock:
            if self._closed:
                raise SchedulerShutdownError("scheduler is shut down")
            self._seq += 1
            handle = QueryHandle(self._seq, criterion, Deadline.after(timeout))
            handle.observe = observe
            self.submitted += 1
            self._waiting += 1
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._drain, name="repro-sched", daemon=True
                )
                self._worker.start()
            self._queue.put(handle)
        return handle

    def gather(self, handles: list[QueryHandle]) -> list[QueryResult]:
        """Results of ``handles`` in submission order (first failure raises)."""
        return [handle.result() for handle in handles]

    # -- the worker --------------------------------------------------------

    def _drain(self) -> None:
        """Run queued handles in order until :meth:`shutdown` queues the stop."""
        while (handle := self._queue.get()) is not _STOP:
            with self._state_lock:
                self._waiting -= 1
                self.in_flight = 1
            error = None
            try:
                result = self._run(handle)
            except Exception as exc:  # typed repro errors and genuine bugs alike
                error = exc
            # Counters first: a caller woken by the handle reads them settled.
            with self._state_lock:
                self.in_flight = 0
                if error is None:
                    self.completed += 1
                else:
                    self.failed += 1
            if error is None:
                handle._resolve(result)
            else:
                handle._fail(error)

    def _run(self, handle: QueryHandle) -> QueryResult:
        """Plan and run the query, or serve it an equal earlier result."""
        self.admission_wait.observe(time.perf_counter() - handle.submitted_at)
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
        if self._query_cache is None:
            return self._execute(handle, qplan)
        key = (qplan.fingerprint(), self._epoch_vector())
        value = self._query_cache.get(key)
        if value is not None:
            return self._fan_out(handle, qplan, value)
        value = self._execute(handle, qplan)
        # A run that failover completed without some party is not the
        # epochs' answer: no later query may be served it.
        if not any(e.category == "degraded_result" for e in handle.leakage):
            self._query_cache.put(key, value)
        return value

    # -- execution ---------------------------------------------------------

    def _epoch_vector(self) -> tuple:
        """Every node store's epoch — the coalescing validity stamp."""
        store = self.service.store
        return tuple(
            (node_id, store.node_store(node_id).epoch)
            for node_id in store.plan.node_ids
        )

    def _execute(self, handle: QueryHandle, qplan: QueryPlan) -> QueryResult:
        service = self.service
        qctx = SmcContext(
            service.ctx.prime,
            service.rng.spawn(f"sched:{handle.seq}"),
            engine=service.ctx.engine,
            tracer=service.tracer,
            encoder=service.ctx.encoder,
        )
        executor = QueryExecutor(
            service.store,
            qctx,
            service.schema,
            value_bound=service.executor.value_bound,
            batch_compare=service.executor.batch_compare,
            projection_cache=self._column_cache,
            subplan_cache=service.subplan_memo if self.coalesce else None,
        )
        span_attrs = {"criterion": qplan.criterion_text, "query": f"q{handle.seq}"}
        with service._private_net() as net:
            try:
                with service.tracer.span("sched.query", span_attrs) as span:
                    result = executor.execute(
                        qplan, net=net, deadline=handle.deadline
                    )
                    if service.tracer.enabled:
                        span.set_attribute("matches", len(result.glsns))
                # Scheduled queries feed the confidentiality observatory
                # too (it is thread-safe); leakage is this query's ledger.
                if handle.observe:
                    service.observe_query_result(result, len(qctx.leakage.events))
                return result
            finally:
                # Cost and leakage are attributed even on failure: the
                # query spent the traffic and disclosed the entries anyway.
                handle.cost = CostReport.collect(
                    net.stats, qctx.crypto_ops, virtual_time=net.now
                )
                handle.leakage = qctx.leakage.events
                service.ctx.leakage.extend(handle.leakage)
                service.ctx.crypto_ops.merge(qctx.crypto_ops)

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
        if handle.observe:
            self.service.observe_query_result(result, len(events))
        return result

    # -- introspection -----------------------------------------------------

    def coalesce_stats(self) -> dict:
        """Hit/miss counts per sharing level (empty when disabled).

        ``joins`` is always 0: with one query executing at a time, nothing
        can join a computation in flight.
        """
        if not self.coalesce:
            return {}
        out: dict = {}
        for cache in (self._column_cache, self.service.subplan_memo, self._query_cache):
            s = cache.stats
            out[cache.name] = {"hits": s.hits, "misses": s.misses, "joins": 0}
        return out

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting and stop the worker once the queue is drained.

        ``wait=True`` runs every queued query and joins the worker;
        ``wait=False`` fails every query that has not started with
        :class:`~repro.errors.SchedulerShutdownError` and returns while the
        running one (if any) finishes.
        """
        abandoned: list[QueryHandle] = []
        with self._state_lock:
            if not self._closed:
                self._closed = True
                if not wait:
                    try:
                        while True:
                            abandoned.append(self._queue.get_nowait())
                    except queue.Empty:
                        pass
                    self._waiting -= len(abandoned)
                    self.failed += len(abandoned)
                self._queue.put(_STOP)
            worker = self._worker
        for handle in abandoned:
            handle._fail(
                SchedulerShutdownError(
                    f"query #{handle.seq} cancelled: scheduler shut down"
                )
            )
        if wait and worker is not None:
            worker.join()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

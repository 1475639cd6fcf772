"""Concurrent audit-query scheduler (one event loop, shared subplans).

The paper's DLA service fields queries from many independent auditors
(§2, §4.2); the serial :class:`~repro.core.service.ConfidentialAuditingService`
entry points run one query at a time, each occupying the whole cluster.
:class:`QueryScheduler` turns the same deployment into a multi-query
service: each admitted query runs as one :class:`asyncio.Task` on an
owned event loop (:class:`~repro.aio.loop.LoopThread`).

* **Admission** — unbounded: every :meth:`submit` immediately becomes a
  parked task, a few KB each, so thousands of queries can be in flight.
  An :class:`asyncio.Semaphore` (``max_inflight``, default
  :data:`DEFAULT_MAX_INFLIGHT`) bounds how many *execute* concurrently;
  the rest await it.
* **Isolation** — every admitted query gets its own
  :class:`~repro.smc.base.SmcContext` (private RNG stream, crypto
  counter, leakage ledger) and its own
  :class:`~repro.net.simnet.SimNetwork` — the same private network a
  sync call gets — so a party's view holds its own query's frames and
  nothing else, and per-query cost reports are exact.  Ledgers merge
  into the service-wide ones *grouped per query*.
* **Pipelining** — drains are cooperative coroutines: a network's drain
  hands the loop a turn every :data:`~repro.net.simnet.YIELD_EVERY`
  deliveries, so query B's ring round departs while query A's is still
  in flight.
* **Coalescing** (``REPRO_SCHED_COALESCE``) — identical work in flight
  is computed once and fanned out, keyed on the fragment stores' epochs
  so sharing is invalidation-safe: attribute columns (one shared
  :class:`~repro.cache.LruCache` — a column build never suspends, so it
  is finished before another task could ask for it), cross-predicate SMC
  subplans and whole queries with equal plan fingerprints at equal
  epochs (:class:`~repro.aio.coalesce.AsyncSingleFlight`, whose computes
  ``await``).  A fanned-out query's ledger records the
  ``coalesced_result`` disclosure explicitly.
* **Deadlines** — ``submit(criterion, timeout=...)`` starts the
  :class:`~repro.resilience.Deadline` at *admission*, so time spent
  parked behind the semaphore counts; a query that expires before it
  gets a slot fails with the typed error without consuming cluster work.

:meth:`submit`, :meth:`gather`, :meth:`coalesce_stats` and
:meth:`shutdown` are plain methods bridging onto the owned loop, callable
from any thread.

Observability: per-query ``sched.query`` spans, plus the counts
``/metrics`` reads as the ``repro_sched_*`` families (queue depth,
in-flight, an admission-wait histogram, submitted/completed/failed
counters, per-level coalesce joins).  Each query's network traffic,
reliability events, node health and crypto ops are folded into the
service-wide ledgers when it ends.
"""

from __future__ import annotations

import asyncio
import functools
import os
import threading
import time

from repro.aio.coalesce import AsyncSingleFlight
from repro.aio.loop import LoopThread
from repro.audit.executor import QueryExecutor, QueryResult
from repro.audit.planner import QueryPlan, plan_query
from repro.cache import LruCache
from repro.errors import ConfigurationError, SchedulerError, SchedulerShutdownError
from repro.net.stats import CostReport
from repro.obs.metrics import LATENCY_BUCKETS_SECONDS, Histogram
from repro.resilience.policy import Deadline
from repro.smc.base import SmcContext
from repro.smc.leakage import LeakageEvent

__all__ = [
    "QueryHandle",
    "QueryScheduler",
    "COALESCE_ENV_VAR",
    "DEFAULT_MAX_INFLIGHT",
]

#: Bound on concurrently *executing* query tasks (admission is unbounded:
#: excess queries are parked asyncio.Tasks awaiting the semaphore).
DEFAULT_MAX_INFLIGHT = 256
COALESCE_ENV_VAR = "REPRO_SCHED_COALESCE"

_OFF_VALUES = {"off", "0", "false", "no", "disabled"}
_ON_VALUES = {"on", "1", "true", "yes", "enabled", ""}


def _coalesce_from_env() -> bool:
    """``REPRO_SCHED_COALESCE`` (default on); a value that is neither an
    on nor an off spelling is an error, never a silent "on"."""
    raw = os.environ.get(COALESCE_ENV_VAR, "on").strip().lower()
    if raw in _OFF_VALUES:
        return False
    if raw in _ON_VALUES:
        return True
    raise ConfigurationError(f"{COALESCE_ENV_VAR}={raw!r} is neither on nor off")


class QueryHandle:
    """A submitted query's future: result, cost, and leakage in one place."""

    def __init__(self, seq: int, criterion, deadline: Deadline) -> None:
        self.seq = seq
        self.criterion = criterion
        self.deadline = deadline
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: True when the result was fanned out from a concurrent
        #: identical query instead of being computed by this one.
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
        """Submit-to-finish seconds (includes admission wait); None if running."""
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
    """Admits, pipelines, and coalesces concurrent queries on one event loop.

    Built over one service deployment: the scheduler shares the service's
    stores, schema, prime, engine, and hashed-encoder memo, but runs each
    query in an isolated context over a network of its own.
    ``max_inflight`` defaults to :data:`DEFAULT_MAX_INFLIGHT`;
    ``coalesce`` defaults to ``REPRO_SCHED_COALESCE``.  Passing a
    ``loop_thread`` shares an existing loop (the scheduler then never
    closes it); by default the scheduler owns its loop and tears it down
    on :meth:`shutdown`.
    """

    def __init__(
        self,
        service,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        coalesce: bool | None = None,
        loop_thread: LoopThread | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ConfigurationError("scheduler needs max_inflight >= 1")
        self.max_inflight = max_inflight
        self.coalesce = _coalesce_from_env() if coalesce is None else coalesce
        self.service = service
        self.loop_thread = loop_thread if loop_thread is not None else LoopThread(
            name="repro-aio-sched"
        )
        self._owns_loop = loop_thread is None
        self._seq = 0
        self._state_lock = threading.Lock()
        self._closed = False
        #: Created lazily inside the first task so it binds the owned loop.
        self._sem: asyncio.Semaphore | None = None
        self._waiting = 0
        self._futures: set = set()
        #: Queries executing now (loop thread only), and the counts of
        #: queries admitted, completed and failed (under the state lock).
        self.in_flight = 0
        self.submitted = self.completed = self.failed = 0
        self.admission_wait = Histogram(LATENCY_BUCKETS_SECONDS)
        if self.coalesce:
            self._column_cache = LruCache("sched.projection")
            self._subplan_flight = AsyncSingleFlight(LruCache("sched.subplan"))
            self._query_flight = AsyncSingleFlight(LruCache("sched.query"))
        else:
            self._column_cache = None
            self._subplan_flight = None
            self._query_flight = None

    # -- admission ---------------------------------------------------------

    def submit(self, criterion, timeout: float | None = None) -> QueryHandle:
        """Admit one query; returns immediately with its handle.

        ``criterion`` is a criterion string or a pre-built
        :class:`~repro.audit.planner.QueryPlan`.  ``timeout`` starts the
        query's deadline *now* — time parked behind the in-flight
        semaphore spends it.  Admission itself never blocks: the query
        becomes an event-loop task straight away.
        """
        with self._state_lock:
            if self._closed:
                raise SchedulerShutdownError("scheduler is shut down")
            self._seq += 1
            handle = QueryHandle(self._seq, criterion, Deadline.after(timeout))
            future = self.loop_thread.submit(self._process(handle))
            self._futures.add(future)
            self.submitted += 1
        future.add_done_callback(functools.partial(self._task_done, handle))
        return handle

    def _task_done(self, handle: QueryHandle, future) -> None:
        with self._state_lock:
            self._futures.discard(future)
        if not handle.done:
            # Only a task cancelled by shutdown(wait=False) — mid-query, or
            # before its first step ever ran — ends without settling its
            # handle; result()/gather() must not wait on it forever.
            handle._fail(
                SchedulerShutdownError(
                    f"query #{handle.seq} cancelled: scheduler shut down"
                )
            )
            self._settle(failed=True)

    def gather(self, handles: list[QueryHandle]) -> list[QueryResult]:
        """Results of ``handles`` in submission order (first failure raises)."""
        return [handle.result() for handle in handles]

    # -- per-query task ----------------------------------------------------

    async def _process(self, handle: QueryHandle) -> None:
        # run_coroutine_threadsafe copies the *submitting* thread's
        # context, which may carry an open span stack; each query task
        # must start from a clean slate or spans would mis-parent.
        self.service.tracer.detach_context()
        if self._sem is None:
            self._sem = asyncio.Semaphore(self.max_inflight)
        try:
            handle._resolve(await self._admit_and_run(handle))
            self._settle(failed=False)
        except Exception as exc:  # typed repro errors and genuine bugs alike
            handle._fail(exc)
            self._settle(failed=True)

    def _settle(self, failed: bool) -> None:
        with self._state_lock:
            if failed:
                self.failed += 1
            else:
                self.completed += 1

    async def _admit_and_run(self, handle: QueryHandle) -> QueryResult:
        """Wait for an execution slot, then plan and run (or join) the query."""
        self._waiting += 1
        try:
            await self._sem.acquire()
        finally:
            self._waiting -= 1
        self.in_flight += 1
        try:
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
            if self._query_flight is None:
                return await self._execute(handle, qplan)
            ran = False

            async def compute() -> QueryResult:
                nonlocal ran
                ran = True
                return await self._execute(handle, qplan)

            key = (qplan.fingerprint(), self._epoch_vector())
            value = await self._query_flight.get_or_compute(key, compute)
            return value if ran else self._fan_out(handle, qplan, value)
        finally:
            self.in_flight -= 1
            self._sem.release()

    # -- execution ---------------------------------------------------------

    def _epoch_vector(self) -> tuple:
        """Every node store's epoch — the coalescing validity stamp."""
        store = self.service.store
        return tuple(
            (node_id, store.node_store(node_id).epoch)
            for node_id in store.plan.node_ids
        )

    async def _execute(self, handle: QueryHandle, qplan: QueryPlan) -> QueryResult:
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
            subplan_cache=self._subplan_flight,
        )
        span_attrs = {"criterion": qplan.criterion_text, "query": f"q{handle.seq}"}
        with service._private_net() as net:
            try:
                with service.tracer.span("sched.query", span_attrs) as span:
                    result = await executor.execute_async(
                        qplan, net=net, deadline=handle.deadline
                    )
                    if service.tracer.enabled:
                        span.set_attribute("matches", len(result.glsns))
                # Concurrent queries feed the confidentiality observatory
                # too (it is thread-safe); leakage is this query's ledger.
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
                f"query #{handle.seq} fanned out from a concurrent identical "
                f"query (equal plan fingerprint at equal store epochs)",
            )
        ]
        handle.leakage = events
        self.service.ctx.leakage.extend(events)
        return QueryResult(
            plan=qplan,
            glsns=list(value.glsns),
            subquery_glsns={k: list(v) for k, v in value.subquery_glsns.items()},
            messages=value.messages,
            bytes=value.bytes,
        )

    # -- introspection -----------------------------------------------------

    def coalesce_stats(self) -> dict:
        """Hit/miss/join counts per sharing level (empty when disabled)."""
        if not self.coalesce:
            return {}
        out: dict = {}
        for level, joins in (
            (self._column_cache, 0),  # nothing can join a build that never suspends
            (self._subplan_flight, self._subplan_flight.joins),
            (self._query_flight, self._query_flight.joins),
        ):
            s = level.stats
            out[level.name] = {"hits": s.hits, "misses": s.misses, "joins": joins}
        return out

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting, drain every in-flight query, stop the loop."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            futures = list(self._futures)
        if wait:
            for future in futures:
                try:
                    future.result()
                except Exception:
                    # The failure is already recorded on its handle; the
                    # task future is only awaited here for quiescence.
                    pass
        if self._owns_loop:
            self.loop_thread.close()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

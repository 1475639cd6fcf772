"""Concurrent audit-query scheduler (bounded admission, shared subplans).

The paper's DLA service fields queries from many independent auditors
(§2, §4.2); the serial :class:`~repro.core.service.ConfidentialAuditingService`
entry points run one query at a time, each occupying the whole cluster.
:class:`QueryScheduler` turns the same deployment into a multi-query
service:

* **Admission** — a bounded queue (``REPRO_SCHED_QUEUE_DEPTH``) feeds a
  fixed worker pool (``REPRO_SCHED_WORKERS``).  A full queue exerts
  backpressure: :meth:`submit` blocks up to
  ``REPRO_SCHED_ADMISSION_TIMEOUT`` seconds, then raises the typed
  :class:`~repro.errors.SchedulerSaturatedError`.
* **Isolation** — every admitted query gets its own
  :class:`~repro.smc.base.SmcContext` (private RNG stream, crypto
  counter, leakage ledger) and its own :class:`~repro.sched.Channel`
  over one shared :class:`~repro.net.simnet.SimNetwork`, so interleaved
  SMC rounds never cross-talk and per-query cost reports stay exact.
  Ledgers merge into the service-wide ones *grouped per query*.
* **Pipelining** — workers progress independently: query B's node-local
  predicate scans run while query A's network-bound SMC rounds drain
  (the channel event loop is cooperative — whichever worker waits next
  helps deliver).
* **Coalescing** (``REPRO_SCHED_COALESCE``) — identical work in flight
  is computed once and fanned out, keyed on the fragment stores' epochs
  so sharing is invalidation-safe: attribute columns (a shared
  single-flight cache), cross-predicate SMC subplans, and whole queries
  with equal plan fingerprints at equal epochs.  A fanned-out
  query's ledger records the ``coalesced_result`` disclosure explicitly.
* **Deadlines** — ``submit(criterion, timeout=...)`` starts the
  :class:`~repro.resilience.Deadline` at *admission*, so time spent
  queued counts; a query that expires before a worker picks it up fails
  with the typed error without consuming cluster work.

Observability: per-query ``sched.query`` spans plus ``sched.*`` metrics
(queue depth and in-flight gauges, admission-wait histogram,
submitted/completed/failed counters, per-level coalesce hits).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass

from repro.audit.executor import QueryExecutor, QueryResult
from repro.audit.planner import QueryPlan, plan_query
from repro.cache import LruCache
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    SchedulerError,
    SchedulerSaturatedError,
    SchedulerShutdownError,
)
from repro.net.stats import CostReport
from repro.resilience.policy import Deadline
from repro.sched.channel import ChannelMux
from repro.sched.coalesce import SingleFlightCache
from repro.smc.base import SmcContext
from repro.smc.leakage import LeakageEvent
from repro.twin import run_sync

__all__ = [
    "SchedulerConfig",
    "QueryHandle",
    "QueryScheduler",
    "WORKERS_ENV_VAR",
    "QUEUE_DEPTH_ENV_VAR",
    "COALESCE_ENV_VAR",
    "ADMISSION_TIMEOUT_ENV_VAR",
]

WORKERS_ENV_VAR = "REPRO_SCHED_WORKERS"
QUEUE_DEPTH_ENV_VAR = "REPRO_SCHED_QUEUE_DEPTH"
COALESCE_ENV_VAR = "REPRO_SCHED_COALESCE"
ADMISSION_TIMEOUT_ENV_VAR = "REPRO_SCHED_ADMISSION_TIMEOUT"

_OFF_VALUES = {"off", "0", "false", "no", "disabled"}


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"{name}={raw!r} is not an integer") from None
    if value < 1:
        raise ConfigurationError(f"{name} must be positive")
    return value


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler knobs; :meth:`from_env` reads the ``REPRO_SCHED_*`` set."""

    workers: int = 4
    queue_depth: int = 64
    coalesce: bool = True
    #: Seconds :meth:`QueryScheduler.submit` may block on a full queue
    #: before raising; ``None`` blocks until space frees (backpressure).
    admission_timeout: float | None = None

    @classmethod
    def from_env(cls) -> "SchedulerConfig":
        raw_timeout = os.environ.get(ADMISSION_TIMEOUT_ENV_VAR)
        timeout: float | None = None
        if raw_timeout:
            try:
                timeout = float(raw_timeout)
            except ValueError:
                raise ConfigurationError(
                    f"{ADMISSION_TIMEOUT_ENV_VAR}={raw_timeout!r} is not a number"
                ) from None
        coalesce_raw = os.environ.get(COALESCE_ENV_VAR, "on").strip().lower()
        return cls(
            workers=_env_int(WORKERS_ENV_VAR, cls.workers),
            queue_depth=_env_int(QUEUE_DEPTH_ENV_VAR, cls.queue_depth),
            coalesce=coalesce_raw not in _OFF_VALUES,
            admission_timeout=timeout,
        )


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
        #: Per-query :class:`~repro.net.stats.CostReport` (channel
        #: traffic + this query's own crypto ops).
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


class _BlockingSubplanJoin:
    """The awaitable sub-plan join the executor expects, over a thread
    :class:`SingleFlightCache`.

    On a pool thread nothing suspends: the holder runs its coroutine
    ``compute`` to completion and joiners block on the holder's
    ``threading.Event``, exactly as with a sync ``compute``.
    """

    def __init__(self, flight: SingleFlightCache) -> None:
        self.flight = flight

    async def get_or_compute(self, key, compute):
        return self.flight.get_or_compute(key, lambda: run_sync(compute()))


class _Shutdown:
    pass


_SHUTDOWN = _Shutdown()


class QueryScheduler:
    """Admits, pipelines, and coalesces concurrent audit queries.

    Built over one service deployment: the scheduler shares the service's
    stores, schema, prime, engine, and hashed-encoder memo, but runs each
    query in an isolated context over a private channel of one shared
    network.  Constructor arguments override the ``REPRO_SCHED_*``
    environment defaults.
    """

    def __init__(
        self,
        service,
        max_workers: int | None = None,
        queue_depth: int | None = None,
        coalesce: bool | None = None,
        admission_timeout: float | None = None,
        metrics=None,
    ) -> None:
        env = SchedulerConfig.from_env()
        self.config = SchedulerConfig(
            workers=max_workers if max_workers is not None else env.workers,
            queue_depth=queue_depth if queue_depth is not None else env.queue_depth,
            coalesce=coalesce if coalesce is not None else env.coalesce,
            admission_timeout=(
                admission_timeout
                if admission_timeout is not None
                else env.admission_timeout
            ),
        )
        if self.config.workers < 1:
            raise ConfigurationError("scheduler needs at least one worker")
        if self.config.queue_depth < 1:
            raise ConfigurationError("admission queue depth must be positive")
        self.service = service
        self.metrics = metrics if metrics is not None else service.metrics
        if self.metrics is None:
            from repro.obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()
        self.net = service._fresh_net()
        self.mux = ChannelMux(self.net)
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._workers: list[threading.Thread] = []
        self._seq = 0
        self._state_lock = threading.Lock()
        self._closed = False
        if self.config.coalesce:
            m = self.metrics
            self._projection_flight = SingleFlightCache(
                LruCache("sched.projection", metrics=m),
                metrics=m,
                metric_label="projection",
            )
            self._subplan_flight = SingleFlightCache(
                LruCache("sched.subplan", metrics=m), metrics=m, metric_label="subplan"
            )
            self._subplan_join = _BlockingSubplanJoin(self._subplan_flight)
            self._query_flight = SingleFlightCache(
                LruCache("sched.query", metrics=m), metrics=m, metric_label="query"
            )
        else:
            self._projection_flight = None
            self._subplan_flight = None
            self._subplan_join = None
            self._query_flight = None
        # Metric instances resolved once; emission is then a locked add.
        self._depth_gauge = self.metrics.gauge(
            "sched.queue_depth", help="queries waiting for a worker"
        )
        self._inflight_gauge = self.metrics.gauge(
            "sched.in_flight", help="queries currently executing"
        )
        self._admission_hist = self.metrics.histogram(
            "sched.admission_wait_seconds",
            help="seconds between submit and worker pickup",
        )
        self._submitted = self.metrics.counter(
            "sched.submitted", help="queries admitted"
        )
        self._completed = self.metrics.counter(
            "sched.completed", help="queries finished successfully"
        )
        self._failed = self.metrics.counter(
            "sched.failed", help="queries finished with an error"
        )

    # -- admission ---------------------------------------------------------

    def submit(self, criterion, timeout: float | None = None) -> QueryHandle:
        """Admit one query; returns immediately with its handle.

        ``criterion`` is a criterion string or a pre-built
        :class:`~repro.audit.planner.QueryPlan`.  ``timeout`` starts the
        query's deadline *now* — admission-queue wait spends it.
        """
        with self._state_lock:
            if self._closed:
                raise SchedulerShutdownError("scheduler is shut down")
            self._ensure_workers()
            self._seq += 1
            handle = QueryHandle(self._seq, criterion, Deadline.after(timeout))
        try:
            if self.config.admission_timeout is not None:
                self._queue.put(handle, timeout=self.config.admission_timeout)
            else:
                self._queue.put(handle)
        except queue.Full:
            raise SchedulerSaturatedError(
                f"admission queue full ({self.config.queue_depth} deep) for "
                f"{self.config.admission_timeout}s"
            ) from None
        self._submitted.inc()
        self._depth_gauge.set(self._queue.qsize())
        return handle

    def gather(self, handles: list[QueryHandle]) -> list[QueryResult]:
        """Results of ``handles`` in submission order (first failure raises)."""
        return [handle.result() for handle in handles]

    # -- worker pool -------------------------------------------------------

    def _ensure_workers(self) -> None:
        """Spawn the pool on first submit (state lock held)."""
        if self._workers:
            return
        for i in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"sched-worker-{i}", daemon=True
            )
            worker.start()
            self._workers.append(worker)

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            self._depth_gauge.set(self._queue.qsize())
            if item is _SHUTDOWN:
                return
            self._process(item)

    def _process(self, handle: QueryHandle) -> None:
        self._inflight_gauge.inc()
        try:
            wait = time.perf_counter() - handle.submitted_at
            self._admission_hist.observe(wait)
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
                result = self._execute(handle, qplan)
            else:
                ran = False

                def compute() -> QueryResult:
                    nonlocal ran
                    ran = True
                    return self._execute(handle, qplan)

                key = (qplan.fingerprint(), self._epoch_vector())
                value = self._query_flight.get_or_compute(key, compute)
                if ran:
                    result = value
                else:
                    result = self._fan_out(handle, qplan, value)
            handle._resolve(result)
            self._completed.inc()
        except DeadlineExceededError as exc:
            handle._fail(exc)
            self._failed.inc()
        except Exception as exc:  # typed repro errors and genuine bugs alike
            handle._fail(exc)
            self._failed.inc()
        finally:
            self._inflight_gauge.dec()

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
        # One ring of a sharded cluster prefixes its channel tags with the
        # shard label, so multiplexed traffic stays attributable per shard.
        shard = getattr(service, "shard_label", None)
        tag = f"{shard}.q{handle.seq}" if shard else f"q{handle.seq}"
        channel = self.mux.channel(tag)
        qctx = SmcContext(
            service.ctx.prime,
            service.rng.spawn(f"sched:{handle.seq}"),
            engine=service.ctx.engine,
            tracer=service.tracer,
            metrics=service.metrics,
            encoder=service.ctx.encoder,
            precompute=service.precompute,
            telemetry=service.telemetry,
        )
        executor = QueryExecutor(
            service.store,
            qctx,
            service.schema,
            value_bound=service.executor.value_bound,
            batch_compare=service.executor.batch_compare,
            projection_cache=self._projection_flight,
            subplan_cache=self._subplan_join,
        )
        vt_start = self.net.now
        span_attrs = {"criterion": qplan.criterion_text, "channel": tag}
        if shard:
            span_attrs["shard"] = shard
        try:
            with service.tracer.span("sched.query", span_attrs) as span:
                result = executor.execute(
                    qplan, net=channel, deadline=handle.deadline
                )
                if service.tracer.enabled:
                    span.set_attribute("matches", len(result.glsns))
            # Concurrent queries feed the confidentiality observatory too
            # (it is thread-safe); leakage is this query's private ledger.
            service.observe_query_result(result, len(qctx.leakage.events))
            return result
        finally:
            # Cost and leakage are attributed even on failure: the query
            # spent the traffic and disclosed the entries regardless.
            handle.cost = CostReport.collect(
                channel.stats, qctx.crypto_ops, virtual_time=self.net.now - vt_start
            )
            handle.leakage = qctx.leakage.events
            service.ctx.leakage.extend(handle.leakage)
            service.ctx.crypto_ops.merge(qctx.crypto_ops)
            channel.close()

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
        out: dict = {}
        for flight in (
            self._projection_flight,
            self._subplan_flight,
            self._query_flight,
        ):
            if flight is None:
                continue
            s = flight.stats
            out[flight.name] = {
                "hits": s.hits,
                "misses": s.misses,
                "joins": flight.joins,
            }
        return out

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting, drain the queue, and stop every worker."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for _ in workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for worker in workers:
                worker.join()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

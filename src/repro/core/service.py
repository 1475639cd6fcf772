"""The end-to-end confidential auditing service (paper Figure 2).

:class:`ConfidentialAuditingService` wires every substrate together:

* a ticket authority (Kerberos-style) authenticating application nodes;
* a credential authority + evidence-chain membership for the DLA nodes;
* a fragment plan + distributed log store (vertical fragmentation, ACLs,
  integrity anchors);
* the relaxed-SMC query executor;
* majority agreement + threshold signing over released results.

This is the class a downstream user instantiates; the examples and
integration tests drive everything through it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

from repro.audit.executor import AggregateResult, QueryExecutor, QueryResult
from repro.audit.planner import QueryPlan, plan_query
from repro.cache import LruCache, coalescing_from_env
from repro.cluster.agreement import digest_result, run_majority_agreement, sign_agreed_result
from repro.cluster.authority import CredentialAuthority, NodeCredentials
from repro.cluster.membership import DlaMembership
from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.pohlig_hellman import shared_prime
from repro.crypto.rng import DeterministicRng, system_rng
from repro.crypto.schnorr import SchnorrGroup, SchnorrSignature
from repro.crypto.threshold import ThresholdKeyShare, ThresholdScheme
from repro.crypto.tickets import Operation, Ticket, TicketAuthority
from repro.errors import ClusterError, ConfigurationError
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.integrity import (
    IntegrityChecker,
    IntegrityReport,
    run_batched_integrity_round,
)
from repro.resilience import Deadline, RetryPolicy
from repro.logstore.records import LogRecord
from repro.logstore.schema import GlobalSchema
from repro.logstore.store import DistributedLogStore, WriteReceipt
from repro.net.simnet import SimNetwork
from repro.net.stats import CostReport, CryptoOpCounter, NetworkStats
from repro.obs.confidentiality import ConfidentialityObservatory, QueryObservation
from repro.obs.metrics import collect
from repro.obs.server import ObsServer, start_from_env
from repro.obs.tracer import NOOP_TRACER
from repro.precompute.manager import PrecomputeManager
from repro.sched import QueryScheduler, StandingQueryRegistry
from repro.smc.base import SmcContext
from repro.store import StoreConfig, open_durable_store

__all__ = ["AuditReport", "ConfidentialAuditingService"]

#: How many traces the ``/traces`` endpoint returns.
RECENT_TRACES = 32


@dataclass(frozen=True)
class AuditReport:
    """A released auditing result: glsns + cluster threshold signature."""

    criterion: str
    glsns: tuple[int, ...]
    digest: str
    signature: SchnorrSignature
    cluster_public_key: int

    def body_bytes(self) -> bytes:
        return self.digest.encode("ascii")


_NO_NAMES = frozenset()


@dataclass(frozen=True)
class _QueryScope:
    """One query's context, executor and network (``_query_scope``)."""

    ctx: SmcContext
    executor: QueryExecutor
    net: SimNetwork

    def cost(self) -> CostReport:
        """The query's cost so far: its traffic and its crypto ops."""
        return CostReport.collect(
            self.net.stats, self.ctx.crypto_ops, virtual_time=self.net.now
        )


class _Signatures:
    """Per glsn, the union of the attribute names its fragments carry.

    That union is all eq. 10 reads of a record, and many records share
    one, so each distinct union is one shared (interned) ``frozenset``.
    A glsn's union is read off the nodes' fragments the first time a
    query matches it and kept in the ``"obs.signatures"``
    :class:`~repro.cache.LruCache` (bounded, counted in ``/metrics``,
    off with :func:`~repro.cache.set_caching_enabled`).  Its coherence
    rule is in ``docs/storage.md``, "Store epochs and cache coherence".
    A node that lost a glsn's fragment contributes no names to it.
    """

    def __init__(self, store: DistributedLogStore) -> None:
        self._store = store
        # Orders each emptying of the cache before the fills that follow.
        self._lock = threading.Lock()
        self._kept = LruCache("obs.signatures")
        # The node epochs at the last call, and the highest glsn kept
        # since the last emptying.
        self._epochs = store.epochs
        self._top = -1
        self._interned: dict[frozenset, frozenset] = {}

    def of(self, glsns: list[int]) -> list[frozenset]:
        """The interned attribute-name set of each of ``glsns``."""
        nodes = list(self._store.stores.values())
        with self._lock:
            # Read before the fragments: a mutation racing the read below
            # is after these epochs, so the next call sees it.
            epochs = self._store.epochs
            cut = self._store.changed_since(self._epochs)
            if cut is not None and cut <= self._top:
                self._top, self._interned = -1, {}
                self._kept.clear()
            self._epochs = epochs
            found, missing = self._kept.get_many(glsns)
            if not missing:
                return found
            # ``frozenset.union`` takes each node's values dict as its keys.
            held = [node.held_values(missing) for node in nodes]
            unions = list(map(_NO_NAMES.union, *held))
            interned = self._interned
            fresh = dict(zip(missing, map(interned.setdefault, unions, unions)))
            self._kept.put_many(fresh.items())
            self._top = max(self._top, max(missing))
            return list(map(fresh.get, glsns, found))


class ConfidentialAuditingService:
    """Full DLA deployment in one object.

    Parameters
    ----------
    schema, plan:
        Attribute universe and the vertical fragment assignment.
    prime_bits:
        Size of the shared commutative-cipher prime (tests use 64-128).
    threshold:
        ``k`` of the ``n`` DLA nodes needed to sign a released report;
        defaults to a strict majority.
    rng:
        Seedable RNG for reproducible deployments.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; every audited query
        then produces one ``audit.query`` root span whose attributes
        carry the signed digest and exact cost totals, with the full
        protocol/stage span tree beneath it, and every party's
        ``node.<kind>`` handler spans land in the same tracer (one tree
        per query, see :mod:`repro.obs.tracer`).  Defaults to the no-op
        tracer (zero overhead, nothing recorded).
    resilience:
        Optional :class:`~repro.resilience.RetryPolicy`.  When set, every
        per-query network is built reliable: lost/corrupted frames are
        retransmitted with deterministic backoff, duplicates are dropped
        at the receiver, and ring protocols run under failover
        supervision (re-route around bad links, exclude dead nodes with
        an explicitly ``degraded`` result).  ``None`` (the default) keeps
        the legacy fail-fast semantics.
    faults:
        Optional :class:`~repro.net.faults.FaultPlan` applied to every
        per-query network — the chaos-testing hook.
    prime:
        Explicit shared SMC prime, overriding the ``prime_bits`` table
        lookup.
    store_dir:
        Directory for the durable storage backend (``repro.store``).
        When given — or when ``REPRO_STORE_DIR`` is set — the service's
        log store is a crash-recoverable
        :class:`~repro.store.DurableDistributedLogStore`: every append
        lands in a per-node write-ahead log, epoch checkpoints compact
        in the background, and reopening the same directory recovers
        the pre-crash state (see :attr:`last_recovery` and
        ``docs/storage.md``).  ``None`` with the env var unset keeps the
        in-memory store.
    store_config:
        Optional :class:`~repro.store.StoreConfig` for the durable
        backend, in place of :meth:`StoreConfig.from_env
        <repro.store.StoreConfig.from_env>` (``REPRO_STORE_DIR``,
        ``REPRO_STORE_FSYNC``).
    """

    def __init__(
        self,
        schema: GlobalSchema,
        plan: FragmentPlan,
        prime_bits: int = 128,
        threshold: int | None = None,
        rng: DeterministicRng | None = None,
        tracer=None,
        resilience: RetryPolicy | None = None,
        faults=None,
        prime: int | None = None,
        store_dir: str | None = None,
        store_config: StoreConfig | None = None,
    ) -> None:
        self.rng = rng or system_rng()
        self.resilience = resilience
        self.faults = faults
        self.schema = schema
        self.plan = plan
        self.tracer = tracer or NOOP_TRACER
        #: §5 confidentiality metrics (C_query, C_DLA) computed live for
        #: every executed query, with leakage-budget accounting.
        self.observatory = ConfidentialityObservatory(schema, plan)
        #: Service-wide traffic and reliability-event ledgers: every sync
        #: call's and every scheduled query's private network is folded in
        #: when it ends (what ``/metrics`` reads).
        self.net_stats = NetworkStats()
        self.resilience_stats: Counter = Counter()
        #: Rows ingested through :meth:`append_stream`.
        self.ingested_rows = 0
        self._node_health: dict[str, dict] = {}
        self._health_lock = threading.Lock()
        self.precompute = PrecomputeManager()  # benchmark readout only
        #: Modexp ledger for distributed integrity rounds (kept apart from
        #: the query ledger, :attr:`ctx`).
        self.integrity_ops = CryptoOpCounter()
        #: CostReport of the most recent query/audited_query (None before).
        self.last_query_cost: CostReport | None = None
        # Concurrent-query scheduler, built lazily on first use (repro.sched).
        self._scheduler = None
        self._sched_lock = threading.Lock()
        node_count = len(plan.node_ids)
        self.threshold = threshold if threshold is not None else node_count // 2 + 1
        if not 1 <= self.threshold <= node_count:
            raise ConfigurationError(
                f"threshold {self.threshold} invalid for {node_count} nodes"
            )

        # Application-side authentication.
        self.ticket_authority = TicketAuthority(
            self.rng.spawn("tickets").randbytes(32)
        )

        # Storage: in-memory by default, durable (WAL + checkpoints +
        # crash recovery) when a store directory is configured.
        # The modulus is generated only for a store that has none yet: a
        # recovery reuses the checkpointed one.
        def acc_params() -> AccumulatorParams:
            return AccumulatorParams.generate(256, self.rng.spawn("accumulator"))

        store_cfg = store_config or StoreConfig.from_env()
        durable_dir = store_dir if store_dir is not None else store_cfg.directory
        #: :class:`~repro.store.RecoveryReport` of the durable open —
        #: ``None`` for in-memory services and for fresh directories.
        self.last_recovery = None
        if durable_dir is not None:
            self.store, self.last_recovery = open_durable_store(
                plan,
                self.ticket_authority,
                acc_params,
                durable_dir,
                config=store_cfg,
                tracer=self.tracer,
            )
        else:
            self.store = DistributedLogStore(
                plan,
                self.ticket_authority,
                acc_params(),
                tracer=self.tracer,
            )
        self._signatures = _Signatures(self.store)
        #: The :class:`~repro.sched.StandingQueryRegistry`: :meth:`append_stream`
        #: evaluates it after every ingest epoch while a criterion is registered.
        self.standing = StandingQueryRegistry(self)

        #: What every query's context shares (prime, engine), and
        #: the service-wide ledgers each query merges into when it ends.
        self.ctx = SmcContext(
            prime if prime is not None else shared_prime(prime_bits),
            self.rng.spawn("smc"),
            tracer=self.tracer,
        )
        self._query_seq = itertools.count(1)
        #: Whether a query may be served another query's result at equal
        #: store epochs: ``REPRO_SCHED_COALESCE``, read here once.
        self.coalesce = coalescing_from_env()
        #: The typed columns (node-local: every query reads them).
        self.column_cache = LruCache("query.projection")
        #: The one sub-plan memo: each cross predicate's glsn set, keyed on
        #: the predicate and its nodes' store epochs.  With :attr:`coalesce`
        #: on, every query the service runs reads and writes it, reuses an
        #: equal-epoch result and records ``coalesced_result`` for it.
        self.subplan_memo = LruCache("query.subplan")
        #: The whole-query memo: each scheduled query's result, keyed on its
        #: plan fingerprint and the store epochs.  While :attr:`coalesce` is
        #: on, every :meth:`submit` reads and writes it; it outlives any
        #: scheduler.
        self.query_memo = LruCache("sched.query")

        # DLA-side identity: credential authority, membership, signatures.
        group = SchnorrGroup.generate(256, self.rng.spawn("group"))
        self.credential_authority = CredentialAuthority(
            group, self.rng.spawn("ca"), tracer=self.tracer
        )
        self.node_credentials: dict[str, NodeCredentials] = {}
        founder_id = plan.node_ids[0]
        founder = self.credential_authority.enroll(f"real:{founder_id}")
        self.node_credentials[founder_id] = founder
        self.membership = DlaMembership(self.credential_authority, founder)
        for previous, node_id in zip(plan.node_ids, plan.node_ids[1:]):
            creds = self.credential_authority.enroll(f"real:{node_id}")
            self.node_credentials[node_id] = creds
            self.membership.admit_direct(
                self.node_credentials[previous],
                creds,
                proposal=[f"support:{a}" for a in plan.assignment[node_id]],
                services=[f"store:{a}" for a in plan.assignment[node_id]],
                rng=self.rng.spawn(f"join:{node_id}"),
            )

        self.threshold_scheme = ThresholdScheme(group, self.threshold, node_count)
        self.cluster_public_key, shares = self.threshold_scheme.deal(
            self.rng.spawn("threshold")
        )
        self.node_shares: dict[str, ThresholdKeyShare] = {
            node_id: share for node_id, share in zip(plan.node_ids, shares)
        }

        #: Live telemetry endpoint, opt-in via ``REPRO_OBS_HTTP_PORT``
        #: (``None`` when the variable is unset).
        self.obs_server: ObsServer | None = start_from_env(self)

    # -- application-node lifecycle ------------------------------------------------

    def register_user(
        self,
        user_id: str,
        operations: set[Operation] | None = None,
        lifetime: int | None = None,
    ) -> Ticket:
        """Issue an access ticket for an application node ``u_j``."""
        ops = operations or {Operation.READ, Operation.WRITE}
        return self.ticket_authority.issue(user_id, ops, lifetime)

    def log_event(self, values: dict, ticket: Ticket) -> WriteReceipt:
        """The Figure 2 write path: fragment and store one event record."""
        return self.store.append(values, ticket)

    def read_own_record(self, glsn: int, ticket: Ticket) -> LogRecord:
        """An owner reading back its own record (ticket-checked)."""
        return self.store.read_record(glsn, ticket)

    # -- streaming ingest + standing queries (repro.store / repro.sched) -----------

    def append_stream(
        self,
        rows,
        ticket: Ticket,
        batch_size: int = 64,
        evaluate_standing: bool = True,
    ) -> list[WriteReceipt]:
        """Ingest an iterable of event rows in durability batches.

        Rows are consumed lazily (any iterable works) and appended in
        batches of ``batch_size``; each batch is one *ingest epoch*: the
        per-record accumulators are computed exactly as single appends
        would compute them, each node checks the ticket once and, on a
        durable store, writes its share of the batch in one WAL write, and
        the batch shares one WAL sync — the whole epoch is either durable
        or rolled back as a torn tail on recovery.  A revoked or expired
        ticket therefore takes effect at the next batch.  After every
        epoch the registered standing queries are evaluated and their
        deltas pushed (``evaluate_standing=False`` defers that to an
        explicit :meth:`poll_standing`).
        """
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        receipts: list[WriteReceipt] = []
        rows = iter(rows)
        while True:
            batch = list(islice(rows, batch_size))
            if not batch:
                break
            with self.tracer.span(
                "ingest.batch", {"rows": len(batch), "epoch_start": len(receipts)}
            ):
                receipts.extend(self.store.append_batch(batch, ticket))
            self.ingested_rows += len(batch)
            if evaluate_standing and len(self.standing):
                self.standing.evaluate_epoch()
        return receipts

    def register_standing_query(
        self, criterion: str, tenant: str = "default", on_delta=None
    ):
        """Continuous auditing: register ``criterion`` for per-epoch deltas.

        Returns the :class:`~repro.sched.StandingQuery` handle.  Each
        subsequent ingest epoch pushes a
        :class:`~repro.sched.StandingDelta` (to ``on_delta`` when given)
        containing only the glsns that started or stopped matching; each
        non-empty delta is recorded in the leakage ledger under the
        ``standing_delta`` category and updates the tenant's live
        ``C_DLA`` in the confidentiality observatory.
        """
        return self.standing.register(criterion, tenant=tenant, on_delta=on_delta)

    def poll_standing(self):
        """Evaluate all standing queries now; returns this epoch's deltas."""
        return self.standing.evaluate_epoch()

    def close(self) -> None:
        """Tear down background machinery (scheduler, obs server, store).

        Safe to call repeatedly; an in-memory service only stops its
        scheduler and telemetry endpoint, a durable one additionally
        quiesces compaction and fsyncs every write-ahead log.
        """
        self.shutdown_scheduler()
        self.stop_obs_server()
        store_close = getattr(self.store, "close", None)
        if store_close is not None:
            store_close()

    # -- auditing -----------------------------------------------------------------

    def plan_criterion(self, criterion: str) -> QueryPlan:
        """Plan (Figure 3 decomposition) without executing."""
        return plan_query(criterion, self.schema, self.store.plan, tracer=self.tracer)

    def _fresh_net(self) -> SimNetwork:
        """A simulated network wired into the tracer, the retry policy and
        the fault plan: one per sync call and one per scheduled query."""
        return SimNetwork(
            tracer=self.tracer,
            resilience=self.resilience,
            faults=self.faults,
        )

    @contextmanager
    def _private_net(self):
        """A fresh network for one call or scheduled query.  When it returns
        or raises, its traffic folds into :attr:`net_stats`, its reliability
        events into :attr:`resilience_stats`, and its undeliverable messages
        into the per-node health ``/healthz`` reports."""
        net = self._fresh_net()
        try:
            yield net
        finally:
            self.net_stats.merge(net.stats)
            with self._health_lock:
                self.resilience_stats.update(net.resilience_stats)
            self._update_health(net)

    @contextmanager
    def _query_scope(self, label: str | None = None):
        """The one scope every query the service answers runs in: its own
        context (RNG spawned under ``label``, by default the next
        ``query:{n}``; own crypto and leakage ledgers), an executor over it
        and a :meth:`_private_net`.  On exit, also by an exception, the
        query's ledgers merge into :attr:`ctx` as one group."""
        shared = self.ctx
        ctx = SmcContext(
            shared.prime,
            self.rng.spawn(label or f"query:{next(self._query_seq)}"),
            engine=shared.engine,
            tracer=self.tracer,
        )
        executor = QueryExecutor(
            self.store,
            ctx,
            self.schema,
            projection_cache=self.column_cache,
            subplan_cache=self.subplan_memo if self.coalesce else None,
        )
        try:
            with self._private_net() as net:
                yield _QueryScope(ctx, executor, net)
        finally:
            shared.leakage.extend(ctx.leakage.events)
            shared.crypto_ops.merge(ctx.crypto_ops)

    # -- observability (repro.obs) --------------------------------------------------

    def _update_health(self, net: SimNetwork) -> None:
        """Record what ``net`` saw of each node it involved.  A node is
        ``degraded`` when a delivery to or from it was given up on (the
        dead letters last the network's whole life, across failover
        launches) and no frame of ``net`` reached or left it; nodes ``net``
        never involved keep their last status."""
        failed = {(msg.src, msg.dst) for msg in net.dead_letters}
        suspects = {node for link in failed for node in link}
        reached = {node for link in net.stats.by_link for node in link}
        with self._health_lock:
            for node_id in (suspects | reached).intersection(self.plan.node_ids):
                self._node_health[node_id] = {
                    "status": "ok" if node_id in reached else "degraded",
                    "failed_links": sorted(
                        f"{s}->{d}" for s, d in failed if node_id in (s, d)
                    ),
                }

    def health_snapshot(self) -> dict:
        """The ``/healthz`` endpoint body: per-node liveness."""
        with self._health_lock:
            nodes = {k: dict(v) for k, v in self._node_health.items()}
        for node_id in self.plan.node_ids:
            nodes.setdefault(node_id, {"status": "ok", "failed_links": []})
        overall = "ok" if all(n["status"] == "ok" for n in nodes.values()) else "degraded"
        return {"status": overall, "nodes": dict(sorted(nodes.items()))}

    def recent_traces_snapshot(self) -> list[dict]:
        """The ``/traces`` endpoint body: the :data:`RECENT_TRACES` latest
        traces of :attr:`tracer`, in the order they started finishing."""
        from repro.obs.export import span_to_dict

        traces: dict[str | None, list] = {}
        for span in self.tracer.finished_spans():
            traces.setdefault(span.trace_id, []).append(span)
        return [
            {"trace_id": trace_id, "spans": [span_to_dict(s) for s in spans]}
            for trace_id, spans in list(traces.items())[-RECENT_TRACES:]
        ]

    def start_obs_server(self, port: int = 0) -> ObsServer:
        """Start (or return) the live telemetry endpoint on ``port``."""
        if self.obs_server is None:
            self.obs_server = ObsServer(
                metrics=functools.partial(collect, self),
                health=self.health_snapshot,
                traces=self.recent_traces_snapshot,
                leakage=self.observatory.report,
                port=port,
            ).start()
        return self.obs_server

    def stop_obs_server(self) -> None:
        if self.obs_server is not None:
            self.obs_server.stop()
            self.obs_server = None

    def _record_attributes(self, glsns: list[int]) -> list[frozenset]:
        """Per glsn, the attribute names its fragments carry — all eq. 10
        reads — as the interned sets :class:`_Signatures` keeps."""
        return self._signatures.of(glsns)

    def observe_query_result(
        self, result: QueryResult, leakage_events: int, tenant: str = "default"
    ) -> QueryObservation:
        """Feed one executed query through the confidentiality observatory."""
        return self.observatory.observe_query(
            result.plan,
            self._record_attributes(result.glsns),
            leakage_events,
            tenant=tenant,
        )

    def query(
        self,
        criterion: str,
        timeout: float | None = None,
        tenant: str = "default",
    ) -> QueryResult:
        """Run one confidential auditing query (no report signing).

        ``timeout`` (seconds) becomes a :class:`~repro.resilience.Deadline`
        that propagates down through the executor into every SMC round;
        when it expires the query raises a typed
        :class:`~repro.errors.DeadlineExceededError` instead of hanging.
        ``tenant`` attributes the query in the confidentiality
        observatory's per-tenant C_DLA accounting.
        """
        with self._query_scope() as scope:
            result = scope.executor.execute(
                criterion, net=scope.net, deadline=Deadline.after(timeout)
            )
            self.last_query_cost = scope.cost()
        self.observe_query_result(result, scope.ctx.leakage.count(), tenant=tenant)
        return result

    def aggregate(
        self,
        op: str,
        attribute: str,
        criterion: str | None = None,
        timeout: float | None = None,
    ) -> AggregateResult:
        """Confidential aggregate (sum / count / max / min)."""
        with self._query_scope() as scope:
            result = scope.executor.aggregate(
                op, attribute, criterion, net=scope.net,
                deadline=Deadline.after(timeout),
            )
            self.last_query_cost = scope.cost()
        return result

    # -- scheduled auditing (repro.sched) -----------------------------------------

    @property
    def scheduler(self):
        """The service's persistent query scheduler.

        Built on first access and reused for every subsequent
        :meth:`submit` / :meth:`query_many` call: a
        :class:`~repro.sched.QueryScheduler` running one query at a time
        on its worker thread (standing epochs run on the ingesting one).
        One that was shut down is replaced by a new one here, so a
        ``scheduler.shutdown()`` never leaves the service refusing
        queries.  :meth:`shutdown_scheduler` tears it down.
        """
        with self._sched_lock:
            if self._scheduler is None or self._scheduler._closed:
                self._scheduler = QueryScheduler(self)
            return self._scheduler

    def submit(self, criterion: str, timeout: float | None = None):
        """Queue one query on the :attr:`scheduler`; returns its handle.

        The returned :class:`~repro.sched.QueryHandle` resolves to the
        same :class:`QueryResult` a serial :meth:`query` call would
        produce, plus per-query cost and leakage.  ``timeout`` starts
        counting immediately — time spent in the admission queue is part
        of the budget.
        """
        return self.scheduler.submit(criterion, timeout=timeout)

    def gather(self, handles) -> list[QueryResult]:
        """Results for :meth:`submit` handles, in submission order."""
        return self.scheduler.gather(handles)

    def query_many(self, criteria, timeout: float | None = None) -> list[QueryResult]:
        """Run many queries through the persistent :attr:`scheduler`;
        results in input order.

        ``timeout`` applies per query, not to the batch.
        """
        sched = self.scheduler
        return sched.gather([sched.submit(c, timeout=timeout) for c in criteria])

    def shutdown_scheduler(self) -> None:
        """Stop the persistent scheduler (a later :meth:`submit` rebuilds it)."""
        with self._sched_lock:
            sched, self._scheduler = self._scheduler, None
        if sched is not None:
            sched.shutdown()

    def audited_query(
        self,
        criterion: str,
        timeout: float | None = None,
        tenant: str = "default",
    ) -> AuditReport:
        """Query + majority agreement + threshold-signed release.

        The query runs once and its digest passes one agreement round,
        then ``k`` nodes threshold-sign.  The round votes over that one
        digest copied to every node: no node computes a digest from its
        own view, so this call cannot outvote a falsifying node (only
        :func:`~repro.cluster.agreement.run_majority_agreement` over
        independently reported digests can, which its own tests show).
        ROADMAP items 10 and 14 track giving each node its own view.

        With a tracer installed, the whole run lives under one
        ``audit.query`` root span whose attributes carry the criterion,
        the signed digest, the leakage-event count of this run, and cost
        totals (``messages``, ``bytes``, ``modexp``, ``dropped``) equal to
        :attr:`last_query_cost` — so the trace is a complete, auditable
        account of what the query cost and disclosed.
        """
        with self._query_scope() as scope, self.tracer.span(
            "audit.query", {"criterion": criterion}
        ) as span:
            result = scope.executor.execute(
                criterion, net=scope.net, deadline=Deadline.after(timeout)
            )
            digest = digest_result(sorted(result.glsns))
            local_digests = {node_id: digest for node_id in self.plan.node_ids}
            agreed, _ = run_majority_agreement(local_digests)
            signer_shares = [
                self.node_shares[node_id]
                for node_id in self.plan.node_ids[: self.threshold]
            ]
            # The query's own stream: a nonce reused across two digests
            # would give away the cluster's signing key.
            nonces = scope.ctx.rng.spawn("sign")
            signature = sign_agreed_result(
                self.threshold_scheme, signer_shares, agreed, nonces
            )
            cost = self.last_query_cost = scope.cost()
            leakage_delta = scope.ctx.leakage.count()
            observation = self.observe_query_result(
                result, leakage_delta, tenant=tenant
            )
            span.set_attributes(
                {
                    "digest": agreed,
                    "matches": len(result.glsns),
                    "leakage_events": leakage_delta,
                    "messages": cost.messages,
                    "bytes": cost.bytes,
                    "modexp": cost.modexp,
                    "dropped": cost.dropped,
                    # §5 reconciliation: the observatory's live view of this
                    # query, recorded in the same root span as its costs.
                    "c_query": observation.c_query,
                    "c_dla": self.observatory.c_dla(tenant) or 0.0,
                    "over_budget": observation.over_budget,
                }
            )
        return AuditReport(
            criterion=criterion,
            glsns=tuple(result.glsns),
            digest=agreed,
            signature=signature,
            cluster_public_key=self.cluster_public_key,
        )

    def verify_report(self, report: AuditReport) -> bool:
        """Anyone can check a released report against the cluster key."""
        if digest_result(sorted(report.glsns)) != report.digest:
            return False
        return self.threshold_scheme.verify(
            report.cluster_public_key, report.body_bytes(), report.signature
        )

    def mine_associations(
        self,
        attribute_a: str,
        attribute_b: str,
        min_support: int = 2,
        min_confidence: float = 0.0,
    ):
        """Confidential cross-node association mining (abstract, ref [20]).

        Returns :class:`~repro.mining.associations.AssociationRule` items
        for value pairs of the two attributes whose co-occurrence meets
        the thresholds; sub-threshold values are never revealed.
        """
        from repro.mining.associations import mine_cross_associations

        with self._query_scope() as scope:
            return mine_cross_associations(
                self.store,
                scope.ctx,
                attribute_a,
                attribute_b,
                min_support=min_support,
                min_confidence=min_confidence,
                net=scope.net,
            )

    # -- integrity ------------------------------------------------------------------

    def check_integrity(
        self, distributed: bool = True, timeout: float | None = None,
    ) -> list[IntegrityReport]:
        """§4.1 integrity cross-check of every stored record.

        Circulates one multi-glsn ring token — O(nodes) messages for the
        whole log.  Each node re-folds only the glsns whose
        incoming token value or fragment changed since its last fold;
        :attr:`integrity_ops` counts the rest as ``fold_reused``.  The
        ring is failover-supervised: with :attr:`resilience` set,
        unreachable nodes are routed around or excluded, and reports over
        an incomplete fold come back explicitly unverified (``verified=False``, ``skipped_nodes``).
        ``distributed=False`` checks in process instead.
        """
        if distributed:
            with self._private_net() as net:
                return run_batched_integrity_round(
                    self.store, net=net, deadline=Deadline.after(timeout),
                    crypto=self.integrity_ops,
                )
        return IntegrityChecker(self.store).check_all()

    # -- introspection ----------------------------------------------------------------

    def cost_snapshot(self) -> dict:
        """Crypto-op and leakage accounting since service creation."""
        return {
            "crypto_ops": self.ctx.crypto_ops.snapshot(),
            "integrity_ops": self.integrity_ops.snapshot(),
            "leakage_events": len(self.ctx.leakage.events),
            "leakage_categories": sorted(self.ctx.leakage.categories()),
        }

    def membership_summary(self) -> dict:
        return {
            "size": self.membership.size,
            "chain_length": len(self.membership.chain.pieces),
            "current_inviter": self.membership.current_inviter_pseudonym,
        }

    def describe(self) -> str:
        """Human-readable deployment summary."""
        body = {
            "nodes": self.plan.node_ids,
            "attributes": self.schema.names,
            "assignment": self.plan.assignment,
            "threshold": f"{self.threshold}/{len(self.plan.node_ids)}",
        }
        return json.dumps(body, indent=2)

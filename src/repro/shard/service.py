"""The sharded auditing service: N independent DLA rings, one front door.

:class:`ShardedAuditingService` horizontally partitions the log stream
across ``shards`` complete :class:`~repro.core.ConfidentialAuditingService`
deployments — each its own TTP ring with private fragment stores,
epoch/version space, integrity rings, and credential authority (realm
``shard<k>``).  On top it runs:

* **routing** — a :class:`~repro.shard.ShardRouter` with one global glsn
  allocator and a versioned :class:`~repro.shard.ShardMap`; appends land
  on the ring the map names, at the exact glsn a single-ring deployment
  would have assigned (the scatter-gather result-identity invariant);
* **scatter-gather queries** — a criterion fans out to every target
  ring's persistent :class:`~repro.sched.QueryScheduler` (one channel per
  shard, rings progress concurrently on independent virtual networks) and
  the partial glsn sets merge at the coordinator through the paper's
  secure set union, with the ``shard_partial`` disclosures recorded;
* **roll-ups** — per-shard :class:`~repro.net.stats.CostReport` legs and
  leakage ledgers compose into one query-level report (virtual makespan =
  max over rings + merge), and per-shard ``C_query``/``C_DLA`` compose in
  the coordinator's confidentiality observatory;
* **rebalancing** — :meth:`split_range` / :meth:`move_shard` with
  epoch-bumped map versioning, fragment migration between rings, and the
  stale-version append guard;
* **tenant pinning** — ``REPRO_SHARD_TENANT_PINNING`` confines a tenant
  to one ring; under pinning every ring runs a *fresh* SMC prime and its
  own authority keys, so pinned tenants share no cipher modulus.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.audit.executor import QueryResult
from repro.audit.planner import QueryPlan, plan_query
from repro.core.service import ConfidentialAuditingService
from repro.crypto.pohlig_hellman import shared_prime
from repro.crypto.rng import DeterministicRng, system_rng
from repro.crypto.tickets import Operation, Ticket
from repro.errors import UnknownShardError
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.glsn import RoutedGlsnAllocator
from repro.logstore.schema import GlobalSchema
from repro.net.simnet import SimNetwork
from repro.net.stats import CostReport
from repro.obs.confidentiality import ConfidentialityObservatory
from repro.obs.server import ObsServer, start_from_env
from repro.obs.tracer import NOOP_TRACER
from repro.resilience import Deadline
from repro.shard.config import ShardConfig
from repro.shard.map import ShardMap, ShardRange
from repro.shard.merge import merge_shard_glsns, rollup_cost
from repro.shard.router import ShardRouter
from repro.smc.base import SmcContext
from repro.smc.leakage import LeakageEvent
from repro.store import StoreConfig

__all__ = [
    "ShardedAuditingService",
    "ShardedTicket",
    "ShardedWriteReceipt",
    "ShardedQueryResult",
    "MoveReport",
]


@dataclass(frozen=True)
class ShardedTicket:
    """One user's access tickets, one per ring (authorities are per-shard)."""

    user_id: str
    tickets: dict[int, Ticket]

    def for_shard(self, shard: int) -> Ticket:
        try:
            return self.tickets[shard]
        except KeyError as exc:
            raise UnknownShardError(
                f"ticket for {self.user_id!r} has no shard {shard}"
            ) from exc


@dataclass(frozen=True)
class ShardedWriteReceipt:
    """A routed write: the per-ring receipt plus placement provenance."""

    glsn: int
    accumulator: int
    nodes: tuple[str, ...]
    shard: int
    shard_map_version: int


@dataclass
class ShardedQueryResult:
    """A scatter-gathered query: merged answer + full per-shard accounting."""

    plan: QueryPlan
    glsns: list[int]
    per_shard: dict[int, QueryResult]
    shard_leakage: dict[int, list[LeakageEvent]] = field(default_factory=dict)
    coordinator_leakage: list[LeakageEvent] = field(default_factory=list)
    cost: CostReport | None = None
    shard_costs: dict[int, CostReport] = field(default_factory=dict)
    merge_cost: CostReport | None = None
    shard_map_version: int = 0
    c_query: float | None = None

    @property
    def count(self) -> int:
        return len(self.glsns)

    @property
    def leakage(self) -> list[LeakageEvent]:
        """Query-level ledger: every shard's events + the merge's, in order."""
        events: list[LeakageEvent] = []
        for shard in sorted(self.shard_leakage):
            events.extend(self.shard_leakage[shard])
        events.extend(self.coordinator_leakage)
        return events

    def leakage_reconciliation(self) -> dict:
        """The exact accounting identity the acceptance bench asserts:
        merged total == Σ per-shard + coordinator merge events."""
        per_shard = {
            shard: len(events) for shard, events in sorted(self.shard_leakage.items())
        }
        return {
            "per_shard": per_shard,
            "coordinator": len(self.coordinator_leakage),
            "total": len(self.leakage),
            "reconciles": len(self.leakage)
            == sum(per_shard.values()) + len(self.coordinator_leakage),
        }


@dataclass(frozen=True)
class MoveReport:
    """Outcome of one ``move_shard``: what moved where, at which version."""

    lo: int
    hi: int
    src: int
    dst: int
    glsns: tuple[int, ...]
    shard_map_version: int


class ShardedAuditingService:
    """N-ring DLA cluster behind one append/query facade."""

    def __init__(
        self,
        schema: GlobalSchema,
        plan: FragmentPlan,
        shards: int | None = None,
        prime_bits: int = 128,
        threshold: int | None = None,
        rng: DeterministicRng | None = None,
        tracer=None,
        metrics=None,
        resilience=None,
        faults=None,
        block_size: int | None = None,
        tenant_pinning: bool | None = None,
        store_dir: str | None = None,
        store_config=None,
    ) -> None:
        config = ShardConfig.from_env()
        count = shards if shards is not None else config.count
        # Resolve the durable-store directory here rather than per ring:
        # with only REPRO_STORE_DIR set, every ring would otherwise read
        # the same path from the environment and interleave its WALs.
        if store_dir is None:
            store_dir = (store_config or StoreConfig.from_env()).directory
        self.block_size = block_size if block_size is not None else config.block_size
        self.tenant_pinning = (
            tenant_pinning if tenant_pinning is not None else config.tenant_pinning
        )
        self.schema = schema
        self.plan = plan
        self.rng = rng or system_rng()
        self.tracer = tracer or NOOP_TRACER
        self.metrics = metrics
        self.map = ShardMap(count, block_size=self.block_size)
        self.router = ShardRouter(
            self.map,
            tenant_pinning=self.tenant_pinning,
            lease_size=self.block_size,
        )
        #: ``faults`` may be one FaultPlan (applied to every ring) or a
        #: ``{shard: FaultPlan}`` dict (chaos tests crash one ring only).
        fault_for = (
            faults.get if isinstance(faults, dict) else (lambda _i: faults)
        )
        self.shards: list[ConfidentialAuditingService] = []
        for i in range(count):
            shard_rng = self.rng.spawn(f"shard:{i}")
            # Tenant pinning promises per-tenant primes/keys: every ring
            # gets a freshly generated safe prime instead of the shared
            # table entry, so no two pinned tenants share a modulus.
            prime = (
                shared_prime(prime_bits, rng=shard_rng.spawn("prime"), fresh=True)
                if self.tenant_pinning
                else None
            )
            self.shards.append(
                ConfidentialAuditingService(
                    schema,
                    plan,
                    prime_bits=prime_bits,
                    threshold=threshold,
                    rng=shard_rng,
                    tracer=tracer,
                    metrics=metrics.labeled(shard=f"s{i}")
                    if metrics is not None
                    else None,
                    resilience=resilience,
                    faults=fault_for(i),
                    prime=prime,
                    allocator=RoutedGlsnAllocator(),
                    realm=f"shard{i}",
                    shard_label=f"s{i}",
                    obs_from_env=False,
                    # Durable cluster: every ring journals under its own
                    # subdirectory, so per-ring WALs and checkpoints never
                    # interleave and a single ring can be recovered alone.
                    store_dir=(
                        str(Path(store_dir) / f"ring{i}")
                        if store_dir is not None
                        else None
                    ),
                    store_config=store_config,
                )
            )
        #: ``"auto"`` (default) lets the merge concatenate whenever the
        #: shard map proves the partials disjoint, falling back to the
        #: secure union; ``"union"`` always runs the n-party secure union
        #: (the naive mode BENCH_p7 measures against).
        self.merge_mode = "auto"
        # Coordinator-side merge context: its own prime/rng/ledger; the
        # union over glsns never touches any ring's private key material.
        self.ctx = SmcContext(
            shared_prime(prime_bits),
            self.rng.spawn("coordinator"),
            tracer=self.tracer,
            metrics=metrics,
        )
        #: Query-level §5 metrics over the *merged* answers; per-shard
        #: observatories keep composing underneath (see
        #: :meth:`composed_c_dla`).
        self.observatory = ConfidentialityObservatory(schema, plan, metrics=metrics)
        self.last_query_cost: CostReport | None = None
        self._append_lock = threading.Lock()
        self._migration_tickets: dict[int, Ticket] = {}
        #: One merged telemetry endpoint for the whole cluster (per-shard
        #: auto-binds are suppressed; series separate by ``shard`` label).
        self.obs_server: ObsServer | None = start_from_env(self)

    # -- lifecycle ---------------------------------------------------------

    def shard(self, shard_id: int) -> ConfidentialAuditingService:
        try:
            return self.shards[self.map.check_shard(shard_id)]
        except IndexError as exc:  # pragma: no cover - check_shard guards
            raise UnknownShardError(f"shard {shard_id}") from exc

    def shutdown(self) -> None:
        for svc in self.shards:
            svc.close()
        if self.obs_server is not None:
            self.obs_server.stop()
            self.obs_server = None

    def __enter__(self) -> "ShardedAuditingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- write path --------------------------------------------------------

    def register_user(
        self,
        user_id: str,
        operations: set[Operation] | None = None,
        lifetime: int | None = None,
    ) -> ShardedTicket:
        """Issue one ticket per ring (each shard authenticates its own)."""
        return ShardedTicket(
            user_id=user_id,
            tickets={
                i: svc.register_user(user_id, operations, lifetime)
                for i, svc in enumerate(self.shards)
            },
        )

    def log_event(
        self,
        values: dict,
        ticket: ShardedTicket,
        tenant: str | None = None,
        shard_map_version: int | None = None,
    ) -> ShardedWriteReceipt:
        """Route one append: allocate the global glsn, write to its ring.

        ``shard_map_version`` is the client's cached placement version;
        presenting a stale one raises the typed
        :class:`~repro.errors.StaleShardMapError` instead of mis-sharding.
        """
        with self._append_lock:
            glsn, sid = self.router.route(
                tenant=tenant, shard_map_version=shard_map_version
            )
            shard = self.shards[sid]
            shard.store.allocator.pin(glsn)
            receipt = shard.store.append(values, ticket.for_shard(sid))
        return ShardedWriteReceipt(
            glsn=receipt.glsn,
            accumulator=receipt.accumulator,
            nodes=receipt.nodes,
            shard=sid,
            shard_map_version=self.map.version,
        )

    def pin_tenant(self, tenant: str, shard: int) -> int:
        """Confine ``tenant``'s future appends (and queries) to one ring."""
        return self.router.pin_tenant(tenant, shard)

    # -- scatter-gather query path -----------------------------------------

    def target_shards(self, tenant: str | None = None) -> list[int]:
        """Rings a query must touch: all, unless the tenant is pinned."""
        pinned = self.router.pinned_shard(tenant)
        if pinned is not None:
            return [pinned]
        return list(range(len(self.shards)))

    def scatter(
        self, criterion: str, timeout: float | None = None,
        tenant: str | None = None,
    ) -> dict[int, object]:
        """Fan a criterion out to each target ring's scheduler.

        Returns ``{shard: QueryHandle}`` — the chaos tests settle handles
        individually so one ring's failover never poisons a sibling's.
        """
        return {
            sid: self.shards[sid].submit(criterion, timeout=timeout)
            for sid in self.target_shards(tenant)
        }

    def _merge(
        self,
        qplan: QueryPlan,
        handles: dict[int, object],
        per_shard: dict[int, QueryResult],
        timeout: float | None,
        tenant: str | None,
    ) -> ShardedQueryResult:
        """Union the partials, roll up cost/leakage, observe C_query."""
        coord_before = self.ctx.leakage.count()
        merged, merge_cost = merge_shard_glsns(
            self.ctx,
            {sid: r.glsns for sid, r in per_shard.items()},
            net=SimNetwork(tracer=self.tracer, metrics=self.metrics),
            deadline=Deadline.after(timeout),
            shard_map=self.map,
            force_union=self.merge_mode == "union",
        )
        coordinator_events = self.ctx.leakage.events[coord_before:]
        shard_costs = {
            sid: h.cost
            for sid, h in handles.items()
            if getattr(h, "cost", None) is not None
        }
        cost = rollup_cost(shard_costs, merge_cost)
        self.last_query_cost = cost
        result = ShardedQueryResult(
            plan=qplan,
            glsns=merged,
            per_shard=per_shard,
            shard_leakage={sid: list(h.leakage) for sid, h in handles.items()},
            coordinator_leakage=list(coordinator_events),
            cost=cost,
            shard_costs=shard_costs,
            merge_cost=merge_cost,
            shard_map_version=self.map.version,
        )
        obs = self.observatory.observe_query(
            qplan,
            [
                # the map names the ring that holds the record's fragments
                self.shards[self.map.shard_for(glsn)]._record_attributes([glsn])[0]
                for glsn in merged
            ],
            len(result.leakage),
            tenant=tenant or "default",
        )
        result.c_query = obs.c_query
        return result

    def query(
        self,
        criterion: str,
        timeout: float | None = None,
        tenant: str | None = None,
    ) -> ShardedQueryResult:
        """One confidential query over the whole sharded log.

        Scatter to every target ring, gather, merge via secure union.
        The merged answer is glsn-identical to a single-ring execution of
        the same criterion over the same records (the property suite and
        BENCH_p7 assert it).
        """
        qplan = plan_query(criterion, self.schema, self.plan, tracer=self.tracer)
        attrs = {
            "criterion": criterion,
            "shard": "coord",
            "shards": len(self.target_shards(tenant)),
        }
        with self.tracer.span("shard.query", attrs) as span:
            handles = self.scatter(criterion, timeout=timeout, tenant=tenant)
            per_shard = {sid: h.result() for sid, h in handles.items()}
            result = self._merge(qplan, handles, per_shard, timeout, tenant)
            if self.tracer.enabled:
                span.set_attributes(
                    {
                        "matches": result.count,
                        "messages": result.cost.messages,
                        "bytes": result.cost.bytes,
                        "modexp": result.cost.modexp,
                        "leakage_events": len(result.leakage),
                        "c_query": result.c_query,
                        "shard_map_version": result.shard_map_version,
                    }
                )
        return result

    def query_many(
        self,
        criteria,
        timeout: float | None = None,
        tenant: str | None = None,
    ) -> list[ShardedQueryResult]:
        """Scatter a batch: every (criterion × ring) leg is in flight at
        once, merges happen as each criterion's slowest ring answers."""
        criteria = list(criteria)
        plans = [
            plan_query(c, self.schema, self.plan, tracer=self.tracer)
            for c in criteria
        ]
        fanned = [
            self.scatter(c, timeout=timeout, tenant=tenant) for c in criteria
        ]
        results = []
        for qplan, handles in zip(plans, fanned):
            per_shard = {sid: h.result() for sid, h in handles.items()}
            results.append(self._merge(qplan, handles, per_shard, timeout, tenant))
        return results

    # -- rebalancing -------------------------------------------------------

    def split_range(self, pivot: int) -> tuple[ShardRange, ShardRange]:
        """Carve the placement range containing ``pivot`` in two (no data
        moves; placement unchanged; map version bumps)."""
        return self.router.split_range(pivot)

    def _migration_ticket(self, shard: int) -> Ticket:
        ticket = self._migration_tickets.get(shard)
        if ticket is None:
            ticket = self.shards[shard].register_user(
                "__shard_migration__", {Operation.READ, Operation.WRITE}
            )
            self._migration_tickets[shard] = ticket
        return ticket

    def move_shard(self, lo: int, hi: int, dst: int) -> MoveReport:
        """Re-place ``[lo, hi)`` onto ring ``dst`` and migrate its data.

        The map mutation (with its version bump) lands first, so routes
        taken mid-migration already name the destination; then every
        stored record in the range moves fragment-by-fragment: the
        destination ring adopts each fragment through the ordinary
        ticketed write path (accumulator digests preserved, so §4.1
        integrity checks keep passing), the source ring evicts its copy.
        """
        with self._append_lock:
            src = self.router.move_range(lo, hi, dst)
            if src == dst:
                return MoveReport(
                    lo=lo, hi=hi, src=src, dst=dst, glsns=(),
                    shard_map_version=self.map.version,
                )
            src_store = self.shards[src].store
            dst_store = self.shards[dst].store
            ticket = self._migration_ticket(dst)
            moved = [g for g in src_store.glsns if lo <= g < hi]
            for glsn in moved:
                for node_id, node_store in src_store.stores.items():
                    fragment = node_store.local_fragment(glsn)
                    digest = node_store.expected_accumulator(glsn)
                    dst_store.stores[node_id].put(fragment, ticket, digest)
                for node_store in src_store.stores.values():
                    node_store.evict(glsn)
        return MoveReport(
            lo=lo, hi=hi, src=src, dst=dst, glsns=tuple(moved),
            shard_map_version=self.map.version,
        )

    # -- integrity ---------------------------------------------------------

    def check_integrity(
        self, distributed: bool = True, batched: bool = True,
        timeout: float | None = None,
    ) -> dict[int, list]:
        """§4.1 cross-check on every ring; per-shard report lists."""
        return {
            i: svc.check_integrity(
                distributed=distributed, batched=batched, timeout=timeout
            )
            for i, svc in enumerate(self.shards)
        }

    # -- §5 composition ----------------------------------------------------

    def c_dla(self, tenant: str | None = None) -> float | None:
        """Query-level C_DLA (eq. 13) over merged scatter-gather answers."""
        return self.observatory.c_dla(tenant)

    def c_dla_by_shard(self, tenant: str | None = None) -> dict[int, float | None]:
        """Each ring's own C_DLA over the subqueries it executed."""
        return {
            i: svc.observatory.c_dla(tenant) for i, svc in enumerate(self.shards)
        }

    def composed_c_dla(self, tenant: str | None = None) -> float | None:
        """Cluster C_DLA composed from the per-shard observatories.

        Eq. 13 is a mean over queries, so composition is the
        query-count-weighted mean of the per-shard means — exactly the
        value a single observatory watching every subquery would report.
        """
        total = 0.0
        queries = 0
        for svc in self.shards:
            report = svc.observatory.report()
            buckets = (
                report["tenants"].values()
                if tenant is None
                else [report["tenants"].get(tenant, {"queries": 0, "c_dla": None})]
            )
            for bucket in buckets:
                if bucket["queries"] and bucket["c_dla"] is not None:
                    total += bucket["c_dla"] * bucket["queries"]
                    queries += bucket["queries"]
        return total / queries if queries else None

    # -- observability -----------------------------------------------------

    def health_snapshot(self) -> dict:
        """Cluster ``/healthz``: per-shard node liveness, worst-of overall."""
        per_shard = {
            f"s{i}": svc.health_snapshot() for i, svc in enumerate(self.shards)
        }
        overall = (
            "ok"
            if all(s["status"] == "ok" for s in per_shard.values())
            else "degraded"
        )
        return {
            "status": overall,
            "shards": per_shard,
            "shard_map": self.router.describe(),
        }

    def recent_traces_snapshot(self) -> list[dict]:
        out: list[dict] = []
        for svc in self.shards:
            out.extend(svc.recent_traces_snapshot())
        return out

    def start_obs_server(self, port: int = 0) -> ObsServer:
        """The cluster's merged telemetry endpoint (one bind, all shards)."""
        if self.obs_server is None:
            self.obs_server = ObsServer(
                metrics=self.metrics,
                health=self.health_snapshot,
                traces=self.recent_traces_snapshot,
                leakage=self.observatory.report,
                port=port,
            ).start()
        return self.obs_server

    def cost_snapshot(self) -> dict:
        return {
            "coordinator": {
                "crypto_ops": self.ctx.crypto_ops.snapshot(),
                "leakage_events": len(self.ctx.leakage.events),
            },
            "shards": {i: svc.cost_snapshot() for i, svc in enumerate(self.shards)},
        }

    def describe(self) -> dict:
        return {
            "shards": len(self.shards),
            "map": self.router.describe(),
            "nodes_per_shard": list(self.plan.node_ids),
            "tenant_pinning": self.tenant_pinning,
        }

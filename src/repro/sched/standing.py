"""Standing queries: register an audit criterion once, receive deltas.

A *standing query* is the continuous-auditing form of
:meth:`~repro.core.service.ConfidentialAuditingService.query`: the
auditor registers a criterion once and, at every ingest epoch (each
:meth:`append_stream <repro.core.service.ConfidentialAuditingService.append_stream>`
batch, or an explicit poll), receives only the *delta* — glsns newly
matching or no longer matching since the previous epoch.

An epoch runs on the thread that asks for it (the ingest's own), in the
service's one per-query scope, and never waits behind scheduled queries.
With ``service.coalesce`` on, standing queries of one epoch with equal
plan fingerprints (the floor included) share one execution.  Each query
keeps the node epochs of its last good evaluation and re-reads only the
glsns changed since them: the rule is in ``docs/storage.md``, "Store
epochs and cache coherence".

The differencing discloses strictly less than the full result
re-release it replaces — but it *is* a disclosure with its own shape
(the arrival pattern of matches over time), so every pushed delta is
recorded in the leakage ledger under the ``standing_delta`` category
and fed to the confidentiality observatory under the registering
tenant, whose ``C_DLA`` updates live; the runs themselves are not
observed (see ``docs/storage.md`` for the accounting).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field, replace

from repro.audit.planner import QueryPlan
from repro.cache import caching_enabled

__all__ = ["StandingQuery", "StandingDelta", "StandingQueryRegistry"]


@dataclass(frozen=True)
class StandingDelta:
    """One epoch's incremental answer for one standing query."""

    query_id: int
    criterion: str
    epoch: int
    #: glsns matching now that did not match at the previous epoch.
    added: tuple[int, ...]
    #: glsns that matched previously and no longer do (deletes).
    removed: tuple[int, ...]
    #: Full current cardinality (what a fresh query would return).
    total: int

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed


@dataclass
class StandingQuery:
    """One registered criterion and what its last good evaluation saw."""

    query_id: int
    criterion: str
    qplan: QueryPlan
    tenant: str = "default"
    on_delta: object = None
    #: glsns the auditor has already been shown for this criterion.
    seen: set[int] = field(default_factory=set)
    #: The node epochs ``seen`` was read at (``None``: no good evaluation
    #: yet, or the last one raised or came back degraded).
    node_epochs: tuple[int, ...] | None = None
    epochs: int = 0
    deltas_pushed: int = 0
    last_delta: StandingDelta | None = None


class StandingQueryRegistry:
    """All standing queries of one service, evaluated per ingest epoch.

    Thread-safe; evaluation serializes on one lock.
    """

    def __init__(self, service) -> None:
        self.service = service
        self._queries: dict[int, StandingQuery] = {}
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        #: Evaluation epochs run, and non-empty deltas pushed, ever.
        self.epoch = 0
        self.deltas_pushed = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)

    def register(
        self, criterion: str, tenant: str = "default", on_delta=None
    ) -> StandingQuery:
        """Register ``criterion``; deltas flow from the next epoch on.

        ``on_delta`` (optional) is called with each non-empty
        :class:`StandingDelta` as it is produced.  The first epoch's
        delta contains every currently matching glsn — registration
        starts with no node epochs, not from a hidden full query.
        """
        qplan = self.service.plan_criterion(criterion)
        with self._lock:
            query = StandingQuery(
                query_id=next(self._ids),
                criterion=criterion,
                qplan=qplan,
                tenant=tenant,
                on_delta=on_delta,
            )
            self._queries[query.query_id] = query
            return query

    def unregister(self, query_id: int) -> None:
        with self._lock:
            self._queries.pop(query_id, None)

    def evaluate_epoch(self) -> list[StandingDelta]:
        """Run every standing query once; push and return the deltas.

        Each distinct plan runs once, before any delta: with
        ``service.coalesce`` on, N standing queries over identical plans at
        equal cuts cost one execution and N - 1 ``coalesced_result``
        events.  A query's *cut* is the lowest glsn any node changed
        since its node epochs (0 without them): it runs nothing when
        nothing changed, and otherwise the plan floored at the cut,
        unfloored when the cut is at or below every held glsn.  Its new
        answer is what it had been shown below the cut plus that run's.
        A run that raises leaves every query of the epoch with no node
        epochs, and one that came back degraded leaves its own: the next
        epoch's delta then covers what this one missed.
        """
        service = self.service
        with self._lock:
            if not self._queries:
                return []
            self.epoch += 1
            epoch = self.epoch
            queries = list(self._queries.values())
            store = service.store
            # Read before any run: a mutation racing the runs is after
            # these epochs, so the next epoch's cut covers it.
            now = store.epochs
            cuts = [
                0 if query.node_epochs is None else store.changed_since(query.node_epochs)
                for query in queries
            ]
            # A cut at or below every held glsn floors nothing: run unfloored.
            lowest = store.lowest_glsn
            least = min((cut for cut in cuts if cut is not None), default=None)
            node = next(iter(store.stores.values()))
            with service.tracer.span(
                "standing.epoch",
                {
                    "epoch": epoch,
                    "queries": len(queries),
                    "scope": "full" if least is not None and least <= lowest else "appended",
                    "rows": 0 if least is None else len(node.glsns_from(least)),
                },
            ):
                share = service.coalesce and caching_enabled()
                # Per key: the run's answer and whether it came back degraded.
                runs: dict = {}
                keys = []
                try:
                    for query, cut in zip(queries, cuts):
                        if cut is None:
                            keys.append(None)
                            continue
                        qplan = query.qplan if cut <= lowest else replace(query.qplan, floor=cut)
                        key = qplan.fingerprint() if share else query.query_id
                        keys.append(key)
                        if key in runs:
                            service.ctx.leakage.record(
                                "standing_query", "*", "coalesced_result",
                                f"standing query #{query.query_id} served an equal "
                                f"plan's epoch {epoch} run",
                            )
                        else:
                            label = f"standing:{epoch}:{query.query_id}"
                            with service._query_scope(label) as scope:
                                answer = set(scope.executor.execute(qplan, net=scope.net).glsns)
                            runs[key] = answer, scope.ctx.leakage.count("degraded_result") > 0
                except BaseException:
                    for query in queries:
                        query.node_epochs = None
                    raise
                deltas = []
                for query, cut, key in zip(queries, cuts, keys):
                    added, removed, degraded = set(), set(), False
                    if key is not None:
                        answer, degraded = runs[key]
                        added = answer - query.seen
                        removed = {glsn for glsn in query.seen if glsn >= cut} - answer
                        query.seen -= removed
                        query.seen |= added
                    query.node_epochs = None if degraded else now
                    delta = StandingDelta(
                        query_id=query.query_id,
                        criterion=query.criterion,
                        epoch=epoch,
                        added=tuple(sorted(added)),
                        removed=tuple(sorted(removed)),
                        total=len(query.seen),
                    )
                    query.epochs += 1
                    query.last_delta = delta
                    deltas.append(delta)
                    if delta.empty:
                        continue
                    query.deltas_pushed += 1
                    self.deltas_pushed += 1
                    # The push is itself a disclosure: the auditor learns
                    # which epoch each match arrived in, beyond the result
                    # cardinalities already on the ledger.
                    service.ctx.leakage.record(
                        "standing_query",
                        "auditor",
                        "standing_delta",
                        f"epoch {epoch} delta for {query.criterion!r}: "
                        f"+{len(delta.added)}/-{len(delta.removed)} glsns "
                        f"(total {delta.total})",
                    )
                    # Live C_DLA: the observatory sees the *delta* records
                    # only — what this epoch actually disclosed on top of
                    # the standing query's history.
                    service.observatory.observe_query(
                        query.qplan,
                        service._record_attributes(list(delta.added)),
                        1,
                        tenant=query.tenant,
                        criterion=f"standing:{query.criterion}",
                    )
                    if query.on_delta is not None:
                        query.on_delta(delta)
                return deltas

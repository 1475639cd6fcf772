"""Standing queries: register an audit criterion once, receive deltas.

A *standing query* is the continuous-auditing form of
:meth:`~repro.core.service.ConfidentialAuditingService.query`: the
auditor registers a criterion once and, at every ingest epoch (each
:meth:`append_stream <repro.core.service.ConfidentialAuditingService.append_stream>`
batch, or an explicit poll), receives only the *delta* — glsns newly
matching or no longer matching since the previous epoch.

Deltas are produced by executing the query through the service's
:class:`~repro.sched.QueryScheduler`, so standing queries of one epoch
coalesce with each other (equal plan fingerprint at equal store epochs
→ one execution).  What an epoch executes depends on what changed:

* **appended** — when no node has rewritten a fragment (deleted,
  evicted, tampered with, rolled back or overwritten one: the
  :attr:`~repro.logstore.store.FragmentStore.rewrites` counters) since
  the query's last good evaluation, the plan runs with a glsn *floor*
  (:attr:`QueryPlan.floor <repro.audit.planner.QueryPlan.floor>`): only
  the rows appended since then are read, joined or compared.  Every
  predicate is a function of one row's values, so the floored answer is
  the full answer's new part: it is the delta's ``added``, and nothing
  is ``removed``;
* **full** — on a query's first epoch, after any rewrite, and after a
  run that raised or came back degraded, the whole plan runs and its
  answer is diffed against what the auditor has been shown.

The floor is the lowest node :attr:`~repro.logstore.store.FragmentStore.watermark`,
read before the runs: a row below it is on every node by then, or
arrives later as an out-of-order put, which counts as a rewrite.

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
    """One registered criterion and its per-epoch watermark."""

    query_id: int
    criterion: str
    qplan: QueryPlan
    tenant: str = "default"
    on_delta: object = None
    #: glsns the auditor has already been shown for this criterion.
    seen: set[int] = field(default_factory=set)
    #: The next epoch reads only glsns at or above this (``None``: the
    #: whole log), while the nodes' rewrite counts still equal ``rewrites``.
    floor: int | None = None
    rewrites: tuple[int, ...] = ()
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
        self._epoch = 0
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
        starts from an empty watermark, not from a hidden full query.
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

        Queries are submitted to the service scheduler together, so an
        epoch with N standing queries over identical plans at equal floors
        costs one execution.  A query whose floor holds reads only the
        rows appended since its last good evaluation, and runs nothing
        when there are none; the others run in full (module docstring).
        A run that raises leaves every query of the epoch to run in full
        next time, and one that came back degraded leaves its own: the
        next epoch's delta then covers what this one missed.
        """
        service = self.service
        with self._lock:
            if not self._queries:
                return []
            self._epoch += 1
            epoch = self._epoch
            queries = list(self._queries.values())
            nodes = list(service.store.stores.values())
            # Read before any run: see the module docstring.
            mark = min(node.watermark for node in nodes)
            rewrites = tuple(node.rewrites for node in nodes)
            floors = [
                query.floor if query.rewrites == rewrites else None
                for query in queries
            ]
            full = None in floors
            rows = len(nodes[0]) if full else len(nodes[0].glsns_from(min(floors)))
            with service.tracer.span(
                "standing.epoch",
                {
                    "epoch": epoch,
                    "queries": len(queries),
                    "scope": "full" if full else "appended",
                    "rows": rows,
                },
            ):
                sched = service.scheduler
                # A floor at the mark has nothing above it to read: no run.
                handles = [
                    None if floor == mark else sched._admit(
                        query.qplan if floor is None else replace(query.qplan, floor=floor),
                        observe=False,
                    )
                    for query, floor in zip(queries, floors)
                ]
                try:
                    results = iter(sched.gather([h for h in handles if h is not None]))
                except BaseException:
                    for query in queries:
                        query.floor = None
                    raise
                deltas = []
                for query, floor, handle in zip(queries, floors, handles):
                    current = set() if handle is None else set(next(results).glsns)
                    added = current - query.seen
                    if floor is None:
                        removed = query.seen - current
                        query.seen = current
                    else:
                        removed = set()
                        query.seen |= added
                    degraded = handle is not None and any(
                        event.category == "degraded_result" for event in handle.leakage
                    )
                    query.floor = None if degraded else mark
                    query.rewrites = rewrites
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

    def snapshot(self) -> dict:
        """Registry state for the telemetry endpoint / debugging."""
        with self._lock:
            return {
                "epoch": self._epoch,
                "queries": [
                    {
                        "id": q.query_id,
                        "criterion": q.criterion,
                        "tenant": q.tenant,
                        "seen": len(q.seen),
                        "epochs": q.epochs,
                        "deltas_pushed": q.deltas_pushed,
                        "floor": q.floor,
                    }
                    for q in self._queries.values()
                ],
            }

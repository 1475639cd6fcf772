"""Standing queries: register an audit criterion once, receive deltas.

A *standing query* is the continuous-auditing form of
:meth:`~repro.core.service.ConfidentialAuditingService.query`: the
auditor registers a criterion once and, at every ingest epoch (each
:meth:`append_stream <repro.core.service.ConfidentialAuditingService.append_stream>`
batch, or an explicit poll), receives only the *delta* — glsns newly
matching or no longer matching since the previous epoch.

Deltas are produced by re-executing the query through the service's
:class:`~repro.sched.QueryScheduler`, so standing queries of one epoch
coalesce with each other and with ad-hoc queries (equal plan
fingerprint at equal store epochs → one execution).  The differencing
against the previous answer happens on the auditor side and discloses
strictly less than the full result re-release it replaces — but it *is*
a disclosure with its own shape (the arrival pattern of matches over
time), so every pushed delta is recorded in the leakage ledger under
the ``standing_delta`` category and fed to the confidentiality
observatory, whose per-tenant ``C_DLA`` updates live (see
``docs/storage.md`` for the accounting).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

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
        epoch with N standing queries over identical plans costs one
        execution, and an epoch where nothing changed since the last
        evaluation is answered from the scheduler's coalescing cache.
        """
        service = self.service
        with self._lock:
            if not self._queries:
                return []
            self._epoch += 1
            epoch = self._epoch
            queries = list(self._queries.values())
            with service.tracer.span(
                "standing.epoch",
                {"epoch": epoch, "queries": len(queries)},
            ):
                sched = service.scheduler
                handles = [sched.submit(q.qplan) for q in queries]
                results = sched.gather(handles)
                deltas = []
                for query, result in zip(queries, results):
                    current = set(result.glsns)
                    delta = StandingDelta(
                        query_id=query.query_id,
                        criterion=query.criterion,
                        epoch=epoch,
                        added=tuple(sorted(current - query.seen)),
                        removed=tuple(sorted(query.seen - current)),
                        total=len(current),
                    )
                    query.seen = current
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
                    }
                    for q in self._queries.values()
                ],
            }

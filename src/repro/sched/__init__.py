"""Concurrent audit-query scheduling (``repro.sched``).

Every query, sync or scheduled, runs over a network of its own.  This
package runs many in-flight queries over one deployment:

* :class:`QueryScheduler` — one event-loop task per query with
  semaphore-bounded execution, per-query isolation (context, ledger,
  cost), cross-query coalescing of identical epoch-keyed work,
  deadline-aware admission;
* :class:`QueryHandle` — a submitted query's future (result, cost
  report, private leakage group, latency);
* :class:`StandingQueryRegistry` — register a criterion once, receive
  per-ingest-epoch deltas (continuous auditing; see docs/storage.md).

Coalescing follows ``REPRO_SCHED_COALESCE`` unless the constructor says
otherwise (see docs/async.md).
"""

from repro.sched.scheduler import (
    COALESCE_ENV_VAR,
    DEFAULT_MAX_INFLIGHT,
    QueryHandle,
    QueryScheduler,
)
from repro.sched.standing import StandingDelta, StandingQuery, StandingQueryRegistry

__all__ = [
    "StandingDelta",
    "StandingQuery",
    "StandingQueryRegistry",
    "QueryHandle",
    "QueryScheduler",
    "COALESCE_ENV_VAR",
    "DEFAULT_MAX_INFLIGHT",
]

"""Audit-query scheduling (``repro.sched``).

Every query, sync or scheduled, runs over a network of its own.  This
package queues many queries over one deployment:

* :class:`QueryScheduler` — non-blocking admission, one query at a time
  on one worker thread, per-query isolation (context, ledger, cost),
  cross-query coalescing of identical epoch-keyed work, deadline-aware
  admission;
* :class:`QueryHandle` — a submitted query's future (result, cost
  report, private leakage group, latency);
* :class:`StandingQueryRegistry` — register a criterion once, receive
  per-ingest-epoch deltas (continuous auditing; see docs/storage.md).

Coalescing follows the service's ``REPRO_SCHED_COALESCE`` decision
(see docs/concurrency.md).
"""

from repro.cache import COALESCE_ENV_VAR
from repro.sched.scheduler import QueryHandle, QueryScheduler
from repro.sched.standing import StandingDelta, StandingQuery, StandingQueryRegistry

__all__ = [
    "StandingDelta",
    "StandingQuery",
    "StandingQueryRegistry",
    "QueryHandle",
    "QueryScheduler",
    "COALESCE_ENV_VAR",
]

"""Concurrent audit-query scheduling (``repro.sched``).

The serial service runs one query at a time over a private network.
This package multiplexes many in-flight queries over one deployment:

* :class:`QueryScheduler` — one event-loop task per query with
  semaphore-bounded execution, per-query isolation (context, ledger,
  cost), cross-query coalescing of identical epoch-keyed work,
  deadline-aware admission;
* :class:`QueryHandle` — a submitted query's future (result, cost
  report, private leakage group, latency);
* :class:`Channel` / :class:`ChannelMux` — tagged logical channels over
  one shared network, so interleaved SMC rounds never cross-talk; a
  channel's ``drain`` yields to the event loop, a private network's
  never does;
* :class:`StandingQueryRegistry` — register a criterion once, receive
  per-ingest-epoch deltas (continuous auditing; see docs/storage.md).

Configured by ``REPRO_AIO_MAX_INFLIGHT`` and ``REPRO_SCHED_COALESCE``
(see :class:`SchedulerConfig` and docs/async.md).
"""

from repro.sched.channel import Channel, ChannelMux
from repro.sched.scheduler import (
    COALESCE_ENV_VAR,
    MAX_INFLIGHT_ENV_VAR,
    QueryHandle,
    QueryScheduler,
    SchedulerConfig,
)
from repro.sched.standing import StandingDelta, StandingQuery, StandingQueryRegistry

__all__ = [
    "StandingDelta",
    "StandingQuery",
    "StandingQueryRegistry",
    "Channel",
    "ChannelMux",
    "QueryHandle",
    "QueryScheduler",
    "SchedulerConfig",
    "MAX_INFLIGHT_ENV_VAR",
    "COALESCE_ENV_VAR",
]

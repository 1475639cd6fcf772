"""The event-loop substrate under the sync facade (see ``docs/async.md``).

The paper's workload is I/O-bound message ping-pong around TTP rings,
which is exactly what a single event loop pipelines best.  This package
holds the loop and what runs on it:

* :class:`LoopThread` — one owned event loop on a daemon thread, with
  the sync bridge every facade method uses;
* :class:`AsyncTcpNode` / :class:`AsyncTcpCluster` — the real-socket
  transport, on asyncio streams (one pooled connection per peer,
  writer-drain backpressure, the CRC framing of :mod:`repro.net.codec`
  on the wire);
* :class:`AsyncSingleFlight` — in-flight deduplication of coroutine
  computes, used by :class:`~repro.sched.QueryScheduler`;
* the protocol drivers themselves live where they always did: every
  ``secure_*_async`` / ``run_*_integrity_round_async`` /
  ``QueryExecutor.execute_async`` coroutine is the *one* body of its
  protocol (the sync name is :func:`repro.twin.sync_twin` of it).
  Awaited on the loop, each runs over its own
  :class:`~repro.net.simnet.SimNetwork`, whose ``drain`` hands the loop
  a turn every :data:`~repro.net.simnet.YIELD_EVERY` deliveries, so
  concurrent queries interleave; the sync name resumes those turns in
  place.

Every sync entry point (``ConfidentialAuditingService.query``, the
scheduler facade) keeps working unmodified; the
coroutine paths preserve the exact-reconciliation invariants for spans,
cost reports, and leakage ledgers.
"""

from repro.aio.coalesce import AsyncSingleFlight
from repro.aio.loop import LoopThread
from repro.aio.transport_tcp import AsyncTcpCluster, AsyncTcpNode

__all__ = [
    "AsyncSingleFlight",
    "AsyncTcpCluster",
    "AsyncTcpNode",
    "LoopThread",
    "aio_scheduler_enabled",
]


def aio_scheduler_enabled() -> bool:
    """Always true: there is one scheduler and it runs on the event loop.

    benchmarks/e2e/workloads.py:36 imports this name and calls it in
    every run's ``config()``; it goes when ROADMAP item 1(b) lets the
    benchmark drop that import.
    """
    return True

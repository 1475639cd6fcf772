"""`asyncio`-native core under the sync facade (see ``docs/async.md``).

The thread-pool scheduler (:mod:`repro.sched`) buys concurrency with one
OS thread per in-flight query — tens of queries before lock contention
and stack cost dominate.  The paper's workload is I/O-bound message
ping-pong around TTP rings, which is exactly what a single event loop
pipelines best.  This package supplies that loop:

* :class:`AsyncSimNetwork` / :class:`AsyncChannel` /
  :class:`AsyncChannelMux` — the simulated network and the per-query
  channel multiplexer with a cooperative ``await drain()`` in place of
  the blocking stepped run loop, so independent protocol rounds on one
  loop overlap instead of serializing;
* :class:`AsyncTcpNode` / :class:`AsyncTcpCluster` — real-socket
  transport on asyncio streams (one pooled connection per peer,
  writer-drain backpressure, the CRC framing of :mod:`repro.net.codec`
  unchanged on the wire);
* the protocol drivers themselves live where they always did: every
  ``secure_*_async`` / ``run_*_integrity_round_async`` /
  ``QueryExecutor.execute_async`` coroutine is the *one* body of its
  protocol (the sync name is :func:`repro.twin.sync_twin` of it), and it
  interleaves with its neighbours exactly when it is handed one of the
  transports above;
* :class:`AsyncQueryScheduler` — per-query ``asyncio.Task`` s with
  semaphore-bounded execution (``REPRO_AIO_MAX_INFLIGHT``) behind the
  same sync ``submit``/``gather`` facade as
  :class:`~repro.sched.QueryScheduler`, driven by a :class:`LoopThread`
  that owns the event loop.

Every sync entry point (``ConfidentialAuditingService.query``, the
scheduler facade, the shard front door) keeps working unmodified; the
coroutine paths preserve the exact-reconciliation invariants for spans,
cost reports, and leakage ledgers.
"""

from repro.aio.config import (
    AioConfig,
    MAX_INFLIGHT_ENV_VAR,
    SCHEDULER_ENV_VAR,
    aio_scheduler_enabled,
)
from repro.aio.coalesce import AsyncSingleFlight
from repro.aio.loop import LoopThread
from repro.aio.scheduler import AsyncQueryScheduler
from repro.aio.simnet import AsyncChannel, AsyncChannelMux, AsyncSimNetwork
from repro.aio.transport_tcp import AsyncTcpCluster, AsyncTcpNode

__all__ = [
    "AioConfig",
    "AsyncChannel",
    "AsyncChannelMux",
    "AsyncQueryScheduler",
    "AsyncSimNetwork",
    "AsyncSingleFlight",
    "AsyncTcpCluster",
    "AsyncTcpNode",
    "LoopThread",
    "MAX_INFLIGHT_ENV_VAR",
    "SCHEDULER_ENV_VAR",
    "aio_scheduler_enabled",
]

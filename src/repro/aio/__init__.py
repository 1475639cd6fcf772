"""The one event loop: the real-socket transport (see ``docs/async.md``).

Queries do not run on an event loop: the scheduler runs them one at a
time on a worker thread, and every protocol driver's sync name runs its
coroutine body to completion in one step (:mod:`repro.twin`).  What is
left here is the TCP transport's loop:

* :class:`LoopThread` — one owned event loop on a daemon thread, with
  the sync bridge the transport's facade methods use;
* :class:`AsyncTcpNode` / :class:`AsyncTcpCluster` — the real-socket
  transport, on asyncio streams (one pooled connection per peer,
  writer-drain backpressure, the CRC framing of :mod:`repro.net.codec`
  on the wire).
"""

from repro.aio.loop import LoopThread
from repro.aio.transport_tcp import AsyncTcpCluster, AsyncTcpNode

__all__ = [
    "AsyncTcpCluster",
    "AsyncTcpNode",
    "LoopThread",
    "aio_scheduler_enabled",
]


def aio_scheduler_enabled() -> bool:
    """Always true: there is one scheduler.

    benchmarks/e2e/workloads.py:36 imports this name and calls it in
    every run's ``config()``; it goes when ROADMAP item 1(b) lets the
    benchmark drop that import.
    """
    return True

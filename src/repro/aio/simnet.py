"""Drain-capable simulated network and channels for the event loop.

The sync substrate steps its event queue inside blocking ``run()`` loops
— correct, but a thread that calls ``run()`` is pinned until *its*
traffic quiesces.  On one event loop that model serializes everything,
so the async classes here replace blocking runs with cooperative
coroutine drains:

* :meth:`AsyncSimNetwork.drain` steps the global queue, yielding to the
  event loop every :data:`YIELD_EVERY` steps so concurrent drains
  interleave — a ring round for glsn *k+1* departs while *k*'s reply is
  still in flight, because the coroutine that sent *k* is suspended at a
  yield point, not blocking a thread.
* :meth:`AsyncChannel.drain` steps the *same global* queue (work
  conservation: whoever runs next helps deliver everyone's traffic,
  exactly like the sync helping loop) but stops at **channel
  quiescence** — the per-channel backlog counter maintained by
  :class:`~repro.net.simnet.SimNetwork` — instead of global exhaustion,
  so one query's drain returns as soon as its own rounds are done.

Delivery order stays deterministic: the queue is ordered by virtual
time + tiebreak, and steps are serialized under the mux lock, so which
coroutine happens to pump the loop never changes what is delivered when.
"""

from __future__ import annotations

import asyncio

from repro.errors import ConfigurationError
from repro.net.simnet import SimNetwork
from repro.resilience.policy import Deadline
from repro.sched.channel import Channel, ChannelMux

__all__ = ["AsyncChannel", "AsyncChannelMux", "AsyncSimNetwork"]

#: A drain loop yields to the event loop every this many delivery steps,
#: so concurrent drains interleave at bounded granularity.
YIELD_EVERY = 32


class AsyncSimNetwork(SimNetwork):
    """A :class:`SimNetwork` whose drain is a coroutine.

    The event queue, fault model, reliability layer, and stats are the
    parent's, untouched — protocol results over this network are
    bitwise-identical to the sync one.  Only the *driver* differs:
    ``await net.drain()`` suspends at bounded intervals instead of
    monopolizing the thread, which is what lets independent protocol
    rounds on one loop pipeline.
    """

    async def drain(
        self, max_steps: int = 1_000_000, deadline: Deadline | None = None
    ) -> int:
        """Drain the queue like :meth:`SimNetwork.run`, yielding to the loop."""
        steps = 0
        check_deadline = deadline is not None and deadline.is_finite
        while self.step():
            steps += 1
            if steps >= max_steps:
                raise ConfigurationError(
                    f"network did not quiesce within {max_steps} deliveries"
                )
            if check_deadline and deadline.expired:
                if self.metrics is not None:
                    self.metrics.counter(
                        "resilience.deadline_exceeded",
                        help="runs abandoned because their deadline expired",
                    ).inc()
                deadline.check("simnet.drain")
            if steps % YIELD_EVERY == 0:
                await asyncio.sleep(0)
        return steps


class AsyncChannel(Channel):
    """A :class:`~repro.sched.Channel` with a coroutine drain.

    Inherits the whole sync transport interface (``register`` / ``send``
    / ``run`` / per-channel stats and failure views), so the same channel
    object serves sync helpers and coroutine drivers alike.
    """

    async def drain(
        self, max_steps: int = 1_000_000, deadline: Deadline | None = None
    ) -> int:
        """Step the shared queue until *this channel* is quiescent.

        Helping semantics match :meth:`Channel.run`: any step may deliver
        another channel's message.  Quiescence, however, is per-channel —
        the backlog counter reaching zero — so this coroutine returns the
        moment its own query's rounds are done, while neighbors' traffic
        keeps flowing under whichever drain runs next.
        """
        steps = 0
        check_deadline = deadline is not None and deadline.is_finite
        while True:
            with self.mux.lock:
                if self.mux.net.channel_backlog(self.tag) <= 0:
                    return steps
                progressed = self.mux.net.step()
            if not progressed:
                # Backlog says this channel still owes work, yet the global
                # queue is empty.  Every backlog unit corresponds to a live
                # queue entry (a delivery copy, a channel-tagged timer, or
                # a pending reliable send whose ack/retransmit timer chain
                # is global), so on the single-threaded loop this state is
                # an accounting bug — fail loudly rather than spin.
                raise ConfigurationError(
                    f"channel[{self.tag}]: backlog "
                    f"{self.mux.net.channel_backlog(self.tag)} with an empty "
                    "event queue (backlog accounting bug)"
                )
            steps += 1
            if steps >= max_steps:
                raise ConfigurationError(
                    f"network did not quiesce within {max_steps} deliveries"
                )
            if check_deadline and deadline.expired:
                if self.metrics is not None:
                    self.metrics.counter(
                        "resilience.deadline_exceeded",
                        help="runs abandoned because their deadline expired",
                    ).inc()
                deadline.check(f"channel[{self.tag}].drain")
            if steps % YIELD_EVERY == 0:
                await asyncio.sleep(0)


class AsyncChannelMux(ChannelMux):
    """A :class:`~repro.sched.ChannelMux` handing out drain-capable channels."""

    channel_class = AsyncChannel

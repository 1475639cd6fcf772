"""Channel multiplexing: many logical queries over one physical network.

The serial service builds a fresh :class:`~repro.net.simnet.SimNetwork`
per query, so protocol traffic from different queries can never meet.  A
throughput-oriented deployment cannot afford one network (one set of TCP
links) per in-flight query — concurrent queries must share the physical
links.  :class:`ChannelMux` provides that sharing without cross-talk:

* every message sent through a :class:`Channel` is stamped with the
  channel's tag (wire key ``"ch"``, see :mod:`repro.net.codec`);
* one physical dispatcher per node routes each delivery to the handler
  registered by ``(channel, node)`` — two queries may both register a
  party named ``"P0"`` and each sees only its own rounds;
* per-channel :class:`~repro.net.stats.NetworkStats` (and per-channel
  drop attribution via the network's ``drop_hook``) keep cost reports
  exact per query even though the physical counters are shared;
* per-channel ``failed_links`` / ``dead_letters`` views (bucketed by the
  reliability layer in :class:`~repro.net.simnet.SimNetwork`) let one
  query's ring-failover supervisor diagnose its dead hops without seeing
  — or wiping — a neighbor's.

Stepping: a channel's :meth:`Channel.drain` steps the **global** event
queue — whoever runs next helps deliver everyone's traffic, including
other channels' — but stops at **channel quiescence**, the channel's
backlog reaching 0 (:meth:`~repro.net.simnet.SimNetwork.channel_backlog`),
so one query's drain returns as soon as its own rounds are done.  It
gives control back to the event loop every :data:`YIELD_EVERY`
deliveries, which is what lets concurrent queries under
:class:`~repro.sched.QueryScheduler` interleave; :meth:`Channel.run` is
the same loop without the yields.  A private
:class:`~repro.net.simnet.SimNetwork` never suspends.  One re-entrant
lock serializes every operation on the shared network (register, send,
each check-and-step), so which coroutine or thread happens to pump the
loop never changes what is delivered when: the queue is ordered by
virtual time and tiebreak.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable

from repro.net.message import Message, NodeId
from repro.net.simnet import SimNetwork
from repro.net.stats import NetworkStats
from repro.resilience.policy import Deadline

__all__ = ["Channel", "ChannelMux"]

#: A channel's drain yields to the event loop every this many delivery
#: steps, so concurrent drains interleave at bounded granularity.
YIELD_EVERY = 32

Handler = Callable[[Message, "Channel"], None]


class Channel:
    """One query's logical view of the shared network.

    Implements the transport interface the SMC protocols and the ring
    failover supervisor are written against (``register`` / ``send`` /
    ``send_many`` / ``run`` / ``stats`` / ``failed_links``
    / ``reset_failures`` / ``_count`` / ...), so protocol code runs
    unmodified over a multiplexed network.
    """

    def __init__(self, mux: "ChannelMux", tag: str) -> None:
        self.mux = mux
        self.tag = tag
        self.stats = NetworkStats()
        if mux.net.metrics is not None:
            self.stats.attach_metrics(mux.net.metrics)
        self._nodes: set[NodeId] = set()
        self._closed = False

    # -- passthrough properties -------------------------------------------

    @property
    def tracer(self):
        return self.mux.net.tracer

    @property
    def metrics(self):
        return self.mux.net.metrics

    @property
    def resilience(self):
        return self.mux.net.resilience

    @property
    def now(self) -> float:
        return self.mux.net.now

    @property
    def node_ids(self) -> list[NodeId]:
        with self.mux.lock:
            return sorted(self._nodes)

    @property
    def failed_links(self) -> set[tuple[NodeId, NodeId]]:
        """This channel's exhausted-delivery links only."""
        with self.mux.lock:
            return set(self.mux.net.failed_links_by_channel.get(self.tag, ()))

    @property
    def dead_letters(self) -> list[Message]:
        with self.mux.lock:
            return list(self.mux.net.dead_letters_by_channel.get(self.tag, ()))

    @property
    def resilience_stats(self) -> dict:
        return self.mux.net.resilience_stats

    def _count(self, name: str, tracer_event: str | None = None, attrs=None) -> None:
        self.mux.net._count(name, tracer_event, attrs)

    # -- wiring ------------------------------------------------------------

    def register(self, node_id: NodeId, handler: Handler) -> None:
        """Attach this channel's handler for ``node_id``."""
        with self.mux.lock:
            self._nodes.add(node_id)
            self.mux._register(self.tag, node_id, handler)

    def unregister(self, node_id: NodeId) -> None:
        with self.mux.lock:
            self._nodes.discard(node_id)
            self.mux._unregister(self.tag, node_id)

    # -- traffic -----------------------------------------------------------

    def send(self, msg: Message) -> None:
        msg.channel = self.tag
        with self.mux.lock:
            self.mux.net.send(msg)

    def send_many(self, msgs: list[Message]) -> None:
        for msg in msgs:
            msg.channel = self.tag
        with self.mux.lock:
            self.mux.net.send_many(msgs)

    def broadcast(
        self, src: NodeId, kind: str, payload, exclude: set[NodeId] | None = None
    ) -> None:
        """One copy to every *channel-local* node except ``src``."""
        exclude = exclude or set()
        for node_id in self.node_ids:
            if node_id == src or node_id in exclude:
                continue
            self.send(Message(src=src, dst=node_id, kind=kind, payload=payload))

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        with self.mux.lock:
            self.mux.net.schedule(delay, fn, channel=self.tag)

    def reset_failures(self) -> None:
        """Clear only this channel's failure bucket (failover relaunch)."""
        with self.mux.lock:
            self.mux.net.reset_failures(channel=self.tag)

    # -- event loop --------------------------------------------------------

    def run(self, max_steps: int = 1_000_000, deadline: Deadline | None = None) -> int:
        """:meth:`drain` without the yields: blocks until this channel is
        quiescent and returns the number of deliveries it stepped."""
        return sum(1 for _ in self._deliveries("run", max_steps, deadline))

    async def drain(
        self, max_steps: int = 1_000_000, deadline: Deadline | None = None
    ) -> int:
        """Step the shared queue until *this channel* is quiescent.

        Any step may deliver another channel's message ("helping"), but
        the loop returns the moment this channel's backlog is 0, while
        neighbours' traffic keeps flowing under whichever drain runs next.
        Suspends every :data:`YIELD_EVERY` deliveries, so a sync name
        (:func:`repro.twin.run_sync`) refuses a channel once a round
        passes that many.
        """
        steps = 0
        for steps in self._deliveries("drain", max_steps, deadline):
            if steps % YIELD_EVERY == 0:
                await asyncio.sleep(0)
        return steps

    def _deliveries(self, verb: str, max_steps: int, deadline: Deadline | None):
        net = self.mux.net
        return net._deliver_until(
            lambda: net.channel_backlog(self.tag) <= 0,
            f"channel[{self.tag}].{verb}",
            max_steps,
            deadline,
            self.mux.lock,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release every handler registration of this channel."""
        with self.mux.lock:
            if self._closed:
                return
            self._closed = True
            for node_id in list(self._nodes):
                self.mux._unregister(self.tag, node_id)
            self._nodes.clear()
            self.mux.net.reset_failures(channel=self.tag)
            self.mux._channels.pop(self.tag, None)


class ChannelMux:
    """Routes one :class:`SimNetwork`'s deliveries to per-channel handlers."""

    def __init__(self, net: SimNetwork) -> None:
        self.net = net
        self.lock = threading.RLock()
        self._channels: dict[str, Channel] = {}
        self._handlers: dict[tuple[str, NodeId], Handler] = {}
        # node -> channels currently registered on it (physical dispatcher
        # refcount: unregister the node only when the last channel leaves).
        self._node_channels: dict[NodeId, set[str]] = {}
        net.drop_hook = self._on_drop

    def channel(self, tag: str) -> Channel:
        """Get or create the channel for ``tag``."""
        with self.lock:
            ch = self._channels.get(tag)
            if ch is None:
                ch = self._channels[tag] = Channel(self, tag)
            return ch

    # -- internal wiring (mux lock held by the calling Channel) ------------

    def _register(self, tag: str, node_id: NodeId, handler: Handler) -> None:
        self._handlers[(tag, node_id)] = handler
        users = self._node_channels.setdefault(node_id, set())
        if not users:
            self.net.register(node_id, self._make_dispatcher(node_id))
        users.add(tag)

    def _unregister(self, tag: str, node_id: NodeId) -> None:
        self._handlers.pop((tag, node_id), None)
        users = self._node_channels.get(node_id)
        if users is not None:
            users.discard(tag)
            if not users:
                self._node_channels.pop(node_id, None)
                self.net.unregister(node_id)

    def _make_dispatcher(self, node_id: NodeId):
        def dispatch(msg: Message, _net) -> None:
            channel = self._channels.get(msg.channel)
            handler = self._handlers.get((msg.channel, node_id))
            if channel is None or handler is None:
                # Untagged traffic or a channel that already closed:
                # account it as a drop, never dispatch across channels.
                self.net.stats.record_drop()
                return
            channel.stats.record(msg.kind, msg.size_bytes, msg.src, msg.dst)
            handler(msg, channel)

        return dispatch

    def _on_drop(self, msg: Message) -> None:
        channel = self._channels.get(msg.channel)
        if channel is not None:
            channel.stats.record_drop()

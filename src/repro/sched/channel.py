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

Threading model: one re-entrant lock serializes *all* operations on the
shared network (register, send, event-loop steps).  :meth:`Channel.run`
drains the **global** event queue under that lock, releasing it between
steps — a worker thread waiting for its own query's rounds therefore
*helps* deliver whichever message is next, including other channels'.
Handler state is only ever mutated under the mux lock, so interleaved
SMC rounds stay race-free; and because each channel's events are
enqueued in causal order, within-channel delivery order is deterministic
regardless of which thread happens to pump the loop.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import ConfigurationError
from repro.net.message import Message, NodeId
from repro.net.simnet import SimNetwork
from repro.net.stats import NetworkStats
from repro.resilience.policy import Deadline

__all__ = ["Channel", "ChannelMux"]

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
            self.mux.wakeup.notify_all()

    def send_many(self, msgs: list[Message]) -> None:
        for msg in msgs:
            msg.channel = self.tag
        with self.mux.lock:
            self.mux.net.send_many(msgs)
            self.mux.wakeup.notify_all()

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
            self.mux.wakeup.notify_all()

    @property
    def backlog(self) -> int:
        """Outstanding deliveries/acks/timers tagged with this channel."""
        with self.mux.lock:
            return self.mux.net.channel_backlog(self.tag)

    def reset_failures(self) -> None:
        """Clear only this channel's failure bucket (failover relaunch)."""
        with self.mux.lock:
            self.mux.net.reset_failures(channel=self.tag)

    # -- event loop --------------------------------------------------------

    def run(self, max_steps: int = 1_000_000, deadline: Deadline | None = None) -> int:
        """Drain the shared event queue until it is quiescent.

        Steps the *global* loop: a thread waiting on its own channel may
        execute deliveries belonging to other channels ("helping").  The
        lock is released between steps so concurrent channel runners
        interleave fairly.  Quiescence of the global queue implies every
        delivery this channel was waiting for has been dispatched.

        An empty queue with outstanding channel backlog (work another
        thread is about to enqueue — e.g. the scheduler's loop
        thread) is not treated as quiescence: the runner parks on the
        mux's condition variable instead of spinning, and wakes when the
        next send/schedule lands.  An idle mux therefore costs ~0 steps
        and ~0 CPU.
        """
        steps = 0
        check_deadline = deadline is not None and deadline.is_finite
        while True:
            with self.mux.lock:
                if not self.mux.net.step():
                    if self.mux.net.channel_backlog(self.tag) <= 0:
                        return steps
                    # Queue momentarily empty but this channel still owes
                    # work: wait for the producer's wakeup, never busy-poll.
                    self.mux.wakeup.wait(timeout=0.05)
                    if check_deadline and deadline.expired:
                        deadline.check(f"channel[{self.tag}].run")
                    continue
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
                deadline.check(f"channel[{self.tag}].run")

    async def drain(
        self, max_steps: int = 1_000_000, deadline: Deadline | None = None
    ) -> int:
        """:meth:`run` under the name the protocol drivers await (blocks
        the calling thread, never suspends)."""
        return self.run(max_steps, deadline)

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

    #: Class of the channels :meth:`channel` constructs.  The async mux
    #: (:class:`repro.aio.AsyncChannelMux`) overrides this to hand out
    #: drain-capable channels without re-implementing the routing.
    channel_class = Channel

    def __init__(self, net: SimNetwork) -> None:
        self.net = net
        self.lock = threading.RLock()
        #: Notified whenever a channel enqueues work (send / schedule), so
        #: helpers parked in :meth:`Channel.run` wake without polling.
        self.wakeup = threading.Condition(self.lock)
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
                ch = self._channels[tag] = self.channel_class(self, tag)
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

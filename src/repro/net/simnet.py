"""Event-driven simulated network with a virtual clock.

This is the default substrate the protocols run on.  It delivers messages
in virtual-time order through per-link latency and bandwidth models, counts
every message/byte (see :mod:`repro.net.stats`), and consults an optional
:class:`~repro.net.faults.FaultPlan` on each send.

The paper assumes "message routing is handled by the lower network layer";
``SimNetwork`` *is* that layer.  Substitution note (DESIGN.md): the paper
deployed on dedicated appliance nodes; every protocol here is written
against the abstract ``send/handler`` interface, so the identical protocol
code also runs over real sockets (:mod:`repro.aio.transport_tcp`).

Usage::

    net = SimNetwork()
    net.register("P0", handler_p0)   # handler: (Message, SimNetwork) -> None
    net.register("P1", handler_p1)
    net.send(Message("P0", "P1", "ping", {"x": 1}))
    net.run()                         # drain the event queue

One network per query: every sync call and every scheduled query builds
its own, so nothing is multiplexed over one and a party's view holds its
own query's frames only.  ``await net.drain()`` is :meth:`SimNetwork.run`
under the name the coroutine protocol drivers await: it never suspends.

Reliability (``repro.resilience``): constructed with a
:class:`~repro.resilience.RetryPolicy`, every send becomes *at-least-once*
— the message carries a ``msg_id``, the receiver acknowledges it
(``resilience.ack`` frames, themselves subject to the fault plan), and the
sender retransmits on ack timeout with exponential backoff in **virtual
time** until the policy's attempt budget is spent.  Receivers deduplicate
by message id, so retries compose safely with ``duplicate_rate`` and a
handler runs at most once per logical message.  A link whose retries
exhaust lands in :attr:`failed_links` / :attr:`dead_letters` instead of
raising, so ring supervisors (:mod:`repro.resilience.failover`) can
diagnose dead hops and re-route.  Corrupted frames (fault plan
``corrupt_rate``) are detected "at the receiver" (modeling the codec's
frame checksum) and discarded unacknowledged, which turns corruption into
loss — exactly what retransmission already handles.  Without a policy the
network is the paper's single-shot lower layer, bit-for-bit as before.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, NodeUnreachableError
from repro.net.codec import encoded_size
from repro.net.faults import FaultPlan
from repro.net.message import Message, NodeId
from repro.net.stats import NetworkStats
from repro.obs.tracer import NOOP_TRACER
from repro.resilience.delivery import DedupWindow, MessageIdAllocator
from repro.resilience.policy import Deadline, RetryPolicy

__all__ = ["LinkModel", "SimNetwork", "ACK_KIND"]

Handler = Callable[[Message, "SimNetwork"], None]

#: Message kind of the reliability layer's acknowledgements.
ACK_KIND = "resilience.ack"


@dataclass(frozen=True)
class LinkModel:
    """Latency/bandwidth model for one link (or the default for all links).

    Delivery time = ``latency + size_bytes / bandwidth`` (seconds of
    virtual time); ``bandwidth`` is bytes per virtual second.
    """

    latency: float = 0.001
    bandwidth: float = 125_000_000.0  # ~1 Gbit/s

    def delay_for(self, size_bytes: int) -> float:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ConfigurationError("invalid link model")
        return self.latency + size_bytes / self.bandwidth


class _InFlight:
    """One transmission of a message (corruption is per transmission)."""

    __slots__ = ("msg", "corrupted")

    def __init__(self, msg: Message, corrupted: bool) -> None:
        self.msg = msg
        self.corrupted = corrupted


class _Timer:
    """A scheduled virtual-time callback (retransmit checks, backoff)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn


class SimNetwork:
    """Deterministic discrete-event message network."""

    def __init__(
        self,
        default_link: LinkModel | None = None,
        faults: FaultPlan | None = None,
        tracer=None,
        resilience: RetryPolicy | None = None,
        dedup_window: int = 4096,
    ) -> None:
        self.default_link = default_link or LinkModel()
        self.faults = faults
        self.stats = NetworkStats()
        # Span events on send/recv/drop attach to whatever span is open in
        # the caller (a protocol stage, a query plan node, ...).  With an
        # enabled tracer, sends carry the sender's open span and every
        # handler runs inside a ``node.<kind>`` span under it.
        self.tracer = tracer or NOOP_TRACER
        self.now = 0.0
        self._handlers: dict[NodeId, Handler] = {}
        self._links: dict[tuple[NodeId, NodeId], LinkModel] = {}
        self._queue: list[tuple[float, int, object]] = []
        self._tiebreak = itertools.count()
        self._delivered_log: list[Message] = []
        self.keep_delivery_log = False
        # -- reliability state (inert when resilience is None) -------------
        self.resilience = resilience
        self._allocators: dict[NodeId, MessageIdAllocator] = {}
        self._pending: dict[str, dict] = {}  # msg_id -> {"msg", "attempt"}
        self._dedup = DedupWindow(capacity=dedup_window)
        #: Directed links whose delivery retries exhausted since the last
        #: :meth:`reset_failures` — the failover diagnosis input.
        self.failed_links: set[tuple[NodeId, NodeId]] = set()
        #: The undeliverable messages themselves, for attribution; kept for
        #: the network's whole life (``/healthz`` reads them at the end).
        self.dead_letters: list[Message] = []
        #: Reliability-layer event counts (``/metrics`` renders each as
        #: ``repro_resilience_<event>_total``).
        self.resilience_stats: dict[str, int] = {
            "retries": 0,
            "delivery_failed": 0,
            "duplicates_dropped": 0,
            "corrupt_dropped": 0,
            "acks": 0,
        }

    # -- wiring -----------------------------------------------------------

    def register(self, node_id: NodeId, handler: Handler) -> None:
        """Attach a node's message handler.  Re-registering replaces it."""
        self._handlers[node_id] = handler

    def unregister(self, node_id: NodeId) -> None:
        self._handlers.pop(node_id, None)

    @property
    def node_ids(self) -> list[NodeId]:
        return sorted(self._handlers)

    def set_link(self, src: NodeId, dst: NodeId, model: LinkModel) -> None:
        """Override the link model for one directed pair."""
        self._links[(src, dst)] = model

    def link_for(self, src: NodeId, dst: NodeId) -> LinkModel:
        return self._links.get((src, dst), self.default_link)

    def _count(self, name: str, tracer_event: str | None = None, attrs=None) -> None:
        self.resilience_stats[name] = self.resilience_stats.get(name, 0) + 1
        if tracer_event and self.tracer.enabled:
            self.tracer.add_event(tracer_event, attrs or {})

    # -- traffic ----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ConfigurationError("cannot schedule into the past")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._tiebreak), _Timer(fn))
        )

    def send(self, msg: Message) -> None:
        """Enqueue a message for future delivery.

        Unknown destinations raise immediately — a misrouted protocol is a
        bug we want loud, not a silent drop.  With a
        :class:`~repro.resilience.RetryPolicy` installed the send is
        tracked for acknowledgement and retransmitted on timeout.
        """
        if msg.dst not in self._handlers:
            raise NodeUnreachableError(f"no node registered as {msg.dst!r}")
        if msg.trace_id is None and self.tracer.enabled:
            # The sender's open span; replies and relays keep the context
            # they arrived with (``Message.reply`` / ``forwarded``).
            msg.trace_id, msg.parent_span_id = self.tracer.current_context()
        if self.resilience is not None and msg.kind != ACK_KIND:
            if msg.msg_id is None:
                alloc = self._allocators.get(msg.src)
                if alloc is None:
                    alloc = self._allocators[msg.src] = MessageIdAllocator(msg.src)
                msg.msg_id = alloc.next_id()
            self._pending[msg.msg_id] = {"msg": msg, "attempt": 1}
            self._transmit(msg)
            self.schedule(
                self.resilience.ack_timeout, lambda: self._check_ack(msg.msg_id)
            )
            return
        self._transmit(msg)

    def _transmit(self, msg: Message) -> None:
        """One physical transmission attempt: fault dice + enqueue."""
        size = encoded_size(msg)  # from the codec's layout; nothing is serialised
        msg.size_bytes = size
        msg.sent_at = self.now

        extra_delay = 0.0
        copies = 1
        corrupted = False
        if self.faults is not None:
            decision = self.faults.decide(msg)
            if decision.drop:
                self.stats.record_drop()
                if self.tracer.enabled:
                    self.tracer.add_event(
                        "net.drop",
                        {"src": msg.src, "dst": msg.dst, "kind": msg.kind},
                    )
                return
            extra_delay = decision.extra_delay
            if decision.duplicate:
                copies = 2
            # Corruption is only *detectable* (and therefore only modeled)
            # when the reliability layer's frame checksums are active.
            corrupted = decision.corrupt and self.resilience is not None

        if self.tracer.enabled:
            self.tracer.add_event(
                "net.send",
                {"src": msg.src, "dst": msg.dst, "kind": msg.kind, "bytes": size},
            )
        delay = self.link_for(msg.src, msg.dst).delay_for(size) + extra_delay
        for _ in range(copies):
            heapq.heappush(
                self._queue,
                (self.now + delay, next(self._tiebreak), _InFlight(msg, corrupted)),
            )

    def send_many(self, msgs: list[Message]) -> None:
        """Enqueue several messages (interface parity with ``AsyncTcpNode``).

        The simulator has no per-syscall cost to coalesce away, so this is
        a plain loop; protocols written against ``send_many`` get the real
        coalescing when they run over TCP.
        """
        for msg in msgs:
            self.send(msg)

    def broadcast(self, src: NodeId, kind: str, payload, exclude: set[NodeId] | None = None) -> None:
        """Send one copy of ``payload`` from ``src`` to every other node."""
        exclude = exclude or set()
        for node_id in self.node_ids:
            if node_id == src or node_id in exclude:
                continue
            self.send(Message(src=src, dst=node_id, kind=kind, payload=payload))

    # -- reliability internals ---------------------------------------------

    def _check_ack(self, msg_id: str) -> None:
        entry = self._pending.get(msg_id)
        if entry is None:
            return  # acknowledged while the timer was in flight
        msg: Message = entry["msg"]
        attempt: int = entry["attempt"]
        if self.resilience.exhausted(attempt):
            self._pending.pop(msg_id, None)
            self.failed_links.add((msg.src, msg.dst))
            self.dead_letters.append(msg)
            self._count(
                "delivery_failed",
                "resilience.delivery_failed",
                {"src": msg.src, "dst": msg.dst, "kind": msg.kind, "attempts": attempt},
            )
            return
        self.schedule(self.resilience.backoff(attempt), lambda: self._retransmit(msg_id))

    def _retransmit(self, msg_id: str) -> None:
        entry = self._pending.get(msg_id)
        if entry is None:
            return
        entry["attempt"] += 1
        msg: Message = entry["msg"]
        self._count(
            "retries",
            "resilience.retry",
            {"src": msg.src, "dst": msg.dst, "kind": msg.kind,
             "attempt": entry["attempt"]},
        )
        self._transmit(msg)
        self.schedule(self.resilience.ack_timeout, lambda: self._check_ack(msg_id))

    def _ack(self, msg: Message) -> None:
        """Acknowledge a reliable delivery (ack frames roll the fault dice too)."""
        self.resilience_stats["acks"] += 1
        self._transmit(
            Message(src=msg.dst, dst=msg.src, kind=ACK_KIND, payload={"mid": msg.msg_id})
        )

    def reset_failures(self) -> None:
        """Clear the failed-link ledger (called before each failover launch).

        :attr:`dead_letters` is kept: it is the whole life's record of
        undeliverable messages, which health reporting reads after the
        supervisor's last launch has reset the diagnosis.
        """
        self.failed_links.clear()

    # -- event loop --------------------------------------------------------

    def step(self) -> bool:
        """Process the single earliest queued event.  Returns False if idle."""
        if not self._queue:
            return False
        deliver_at, _tie, item = heapq.heappop(self._queue)
        self.now = max(self.now, deliver_at)
        if isinstance(item, _Timer):
            item.fn()
            return True
        msg = item.msg
        msg.delivered_at = self.now
        handler = self._handlers.get(msg.dst)
        if handler is None:
            # Node unregistered after the send (crash mid-flight).
            self.stats.record_drop()
            if self.tracer.enabled:
                self.tracer.add_event(
                    "net.drop",
                    {"src": msg.src, "dst": msg.dst, "kind": msg.kind},
                )
            return True
        if item.corrupted:
            # Frame checksum mismatch at the receiver: discard without an
            # ack, so the sender's retransmission path repairs the loss.
            self.stats.record_drop()
            self._count(
                "corrupt_dropped",
                "net.corrupt_drop",
                {"src": msg.src, "dst": msg.dst, "kind": msg.kind},
            )
            return True
        self.stats.record(msg.kind, msg.size_bytes, msg.src, msg.dst)
        if self.tracer.enabled:
            self.tracer.add_event(
                "net.recv",
                {
                    "src": msg.src,
                    "dst": msg.dst,
                    "kind": msg.kind,
                    "bytes": msg.size_bytes,
                },
            )
        if self.resilience is not None:
            if msg.kind == ACK_KIND:
                self._pending.pop(msg.payload["mid"], None)
                return True
            if msg.msg_id is not None:
                duplicate = self._dedup.seen((msg.src, msg.dst), msg.msg_id)
                self._ack(msg)
                if duplicate:
                    self._count(
                        "duplicates_dropped",
                        "resilience.dedup_drop",
                        {"src": msg.src, "dst": msg.dst, "kind": msg.kind},
                    )
                    return True
        if self.keep_delivery_log:
            self._delivered_log.append(msg)
        if self.tracer.enabled:
            # Every protocol handler runs inside a span of the receiving
            # party, opened under the span the message was sent from.
            with self.tracer.span(
                f"node.{msg.kind}",
                {
                    "node": msg.dst,
                    "kind": msg.kind,
                    "src": msg.src,
                    "messages": 1,
                    "bytes": msg.size_bytes,
                },
                parent=(msg.trace_id, msg.parent_span_id),
            ):
                handler(msg, self)
        else:
            handler(msg, self)
        return True

    def _deliver_until_idle(
        self, where: str, max_steps: int, deadline: Deadline | None
    ) -> int:
        """The one delivery loop behind :meth:`run` and :meth:`drain`.

        Delivers the earliest queued event until the queue is empty and
        returns the number delivered.  ``max_steps`` guards against
        protocol bugs that generate traffic forever.  ``deadline``
        (wall-clock, see :class:`~repro.resilience.Deadline`) bounds the
        loop; expiry raises :class:`~repro.errors.DeadlineExceededError`
        naming ``where``.
        """
        steps = 0
        check_deadline = deadline is not None and deadline.is_finite
        while self.step():
            steps += 1
            if steps >= max_steps:
                raise ConfigurationError(
                    f"network did not quiesce within {max_steps} deliveries"
                )
            if check_deadline and deadline.expired:
                self._count("deadline_exceeded")
                deadline.check(where)
        return steps

    def run(self, max_steps: int = 1_000_000, deadline: Deadline | None = None) -> int:
        """Drain the queue; returns the number of events processed."""
        return self._deliver_until_idle("simnet.run", max_steps, deadline)

    async def drain(
        self, max_steps: int = 1_000_000, deadline: Deadline | None = None
    ) -> int:
        """:meth:`run` under the name the protocol drivers await.

        It never suspends, so :func:`repro.twin.run_sync` finishes a
        driver over this network in one step.
        """
        return self._deliver_until_idle("simnet.drain", max_steps, deadline)

    @property
    def delivery_log(self) -> list[Message]:
        """Messages delivered so far (only if ``keep_delivery_log`` is set)."""
        return list(self._delivered_log)

    def reset_stats(self) -> None:
        self.stats.reset()

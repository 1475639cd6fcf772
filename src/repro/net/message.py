"""Message model for the DLA network substrate.

Every protocol in the library — ring-routed commutative encryption, share
distribution, accumulator circulation, join handshakes — exchanges
:class:`Message` objects.  A message is addressed node-to-node, carries a
``kind`` tag that receivers dispatch on, an arbitrary JSON-serializable
``payload``, and bookkeeping fields filled in by the transport (virtual
send/deliver times, size in bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Message", "NodeId"]

NodeId = str


@dataclass
class Message:
    """One unit of network traffic.

    Attributes
    ----------
    src, dst:
        Node identifiers (strings; e.g. ``"P0"``, ``"u3"``, ``"ttp"``).
    kind:
        Protocol-level tag, e.g. ``"ssi.relay"``, ``"sum.share"``.
    payload:
        JSON-serializable body.  Conventionally a dict.
    sent_at, delivered_at:
        Virtual-clock timestamps stamped by the simulated network; remain
        ``None`` on transports without a virtual clock.
    size_bytes:
        Encoded size, stamped by the transport for cost accounting.
    msg_id:
        At-least-once delivery id (``"<sender>#<n>"``), assigned by a
        reliable transport on first send and preserved verbatim across
        retransmissions so receivers can deduplicate.  ``None`` on
        unreliable (single-shot) transports.
    channel:
        Logical channel tag (``repro.sched``): when several concurrent
        audit queries multiplex one physical network, each query's
        traffic carries its channel tag so interleaved SMC rounds are
        dispatched to the right query's handlers and never cross-talk.
        ``None`` (the default) on plain single-query transports.
    trace_id, parent_span_id:
        Trace-context propagation (``repro.obs``): the trace this message
        belongs to and the sender's open span as a ``"node:span_id"``
        reference.  Stamped by telemetry-enabled transports at send time,
        preserved across :meth:`reply`/:meth:`forwarded` like ``channel``
        so a whole ring circulation stays in one trace.  ``None`` when
        tracing is off — the codec then omits both fields entirely.
    """

    src: NodeId
    dst: NodeId
    kind: str
    payload: Any = None
    sent_at: float | None = None
    delivered_at: float | None = None
    size_bytes: int = 0
    msg_id: str | None = None
    channel: str | None = None
    trace_id: str | None = None
    parent_span_id: str | None = None

    def reply(self, kind: str, payload: Any = None) -> "Message":
        """Construct a response addressed back to this message's sender."""
        return Message(
            src=self.dst, dst=self.src, kind=kind, payload=payload,
            channel=self.channel,
            trace_id=self.trace_id, parent_span_id=self.parent_span_id,
        )

    def forwarded(self, new_dst: NodeId, payload: Any = None) -> "Message":
        """Construct a relay of this message from its receiver to ``new_dst``.

        Used by ring protocols: each hop re-addresses the (re-encrypted)
        payload to the next node.
        """
        return Message(
            src=self.dst,
            dst=new_dst,
            kind=self.kind,
            payload=self.payload if payload is None else payload,
            channel=self.channel,
            trace_id=self.trace_id,
            parent_span_id=self.parent_span_id,
        )

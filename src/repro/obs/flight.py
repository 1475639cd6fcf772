"""Per-node flight recorders and the telemetry-collection round.

Cross-node tracing needs each party — TTPs, ring relays, the integrity
initiator, the credential authority — to record spans *locally* and ship
them to the coordinator later, exactly like an aircraft flight recorder:
bounded, always-on while tracing is enabled, and read out after the
fact.

* :class:`FlightRecorder` — a :class:`~repro.obs.tracer.Tracer` whose
  finished-span store is a bounded ring buffer (``capacity=``, default
  :data:`DEFAULT_FLIGHT_SPANS` = 2048).  Old spans fall off the front
  and are counted in ``dropped_spans``, so a long-lived node never grows
  without bound.
* :class:`TelemetryHub` — owns one recorder per node id, hands the
  transports the propagation context for outgoing messages
  (:meth:`sender_context`), opens per-node handler spans under a
  propagated parent (:meth:`node_span`), and attributes crypto cost to
  whichever node span is open (:meth:`add_cost`).
* :func:`run_collection_round` — the ``obs.collect`` / ``obs.spans``
  wire round: the coordinator polls every recorder *through the
  transport*, so over TCP the spans genuinely travel as frames.
  Collection messages are excluded from propagation and from the cost
  ledgers' reconciliation story (they run after the query's
  :class:`~repro.net.stats.CostReport` is collected).

The hub is inert (all no-ops, shared NOOP recorder) when the
coordinator's tracer is disabled, preserving the zero-overhead default.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext

from repro.obs.export import span_from_dict, span_to_dict
from repro.obs.tracer import NOOP_TRACER, Span, Tracer

__all__ = [
    "FlightRecorder",
    "TelemetryHub",
    "run_collection_round",
    "DEFAULT_FLIGHT_SPANS",
    "COLLECT_KIND",
    "SPANS_KIND",
]

DEFAULT_FLIGHT_SPANS = 2048

COLLECT_KIND = "obs.collect"
SPANS_KIND = "obs.spans"


def _is_telemetry_kind(kind: str) -> bool:
    """Telemetry traffic must not trace itself (or stamp trace context)."""
    return kind.startswith("obs.")


class FlightRecorder(Tracer):
    """A tracer whose span store is a bounded per-node ring buffer.

    Everything else — thread-local stacks, sequential span ids, orphan
    events — is inherited.  ``drain()`` is what the collection round
    calls on the node side: it empties the buffer and returns the spans
    as wire-safe dicts.
    """

    def __init__(
        self,
        node: str,
        capacity: int = DEFAULT_FLIGHT_SPANS,
        clock=time.perf_counter,
    ) -> None:
        super().__init__(clock=clock, node=node)
        self.capacity = max(1, capacity)
        self._ring: deque[Span] = deque(maxlen=self.capacity)
        self.dropped_spans = 0

    def _store(self, span: Span) -> None:
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped_spans += 1
            self._ring.append(span)

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._ring)

    def drain(self) -> list[dict]:
        """Empty the ring buffer; spans leave as JSON-safe dicts."""
        with self._lock:
            spans = list(self._ring)
            self._ring.clear()
        return [span_to_dict(s) for s in spans]

    def reset(self) -> None:
        super().reset()
        with self._lock:
            self._ring.clear()
            self.dropped_spans = 0


class TelemetryHub:
    """One flight recorder per node, plus the propagation plumbing.

    The transports hold a hub reference (``net.telemetry``) and use it at
    their two choke points: stamping outgoing messages with the sender's
    current ``(trace_id, span ref)`` and wrapping handler delivery in a
    per-node span under the propagated parent.  Protocol code reaches the
    hub through ``ctx.telemetry`` for bootstrap (round-0) work that runs
    outside any message handler.
    """

    def __init__(
        self, tracer=None, metrics=None, capacity=DEFAULT_FLIGHT_SPANS, clock=None
    ) -> None:
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = metrics
        self.capacity = capacity
        self._clock = clock
        self._recorders: dict[str, FlightRecorder] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def recorder(self, node: str) -> FlightRecorder:
        with self._lock:
            rec = self._recorders.get(node)
            if rec is None:
                rec = FlightRecorder(
                    node,
                    capacity=self.capacity,
                    clock=self._clock or time.perf_counter,
                )
                if self.metrics is not None:
                    rec.attach_metrics(self.metrics)
                self._recorders[node] = rec
            return rec

    def node_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._recorders)

    # -- propagation -------------------------------------------------------

    def sender_context(self, src: str) -> tuple[str | None, str] | None:
        """Trace context to stamp on a message leaving ``src``.

        A handler sending mid-delivery has an open node span on this
        thread — that span is the parent.  Bootstrap sends (round 0,
        driven from the coordinator) fall back to the coordinator
        tracer's current span (typically the protocol span).
        """
        with self._lock:
            rec = self._recorders.get(src)
        if rec is not None:
            ctx = rec.current_context()
            if ctx is not None:
                return ctx
        return self.tracer.current_context()

    def node_span(
        self,
        node: str,
        name: str,
        attributes: dict | None = None,
        trace_id: str | None = None,
        remote_parent: str | None = None,
    ):
        """Context manager: a span recorded *at* ``node``.

        Roots under the propagated ``(trace_id, remote_parent)`` when
        given; otherwise under the coordinator's current span (the
        bootstrap case); nested calls chain locally as usual.
        """
        if not self.enabled:
            return nullcontext(None)
        rec = self.recorder(node)
        if rec.current_span is None and trace_id is None and remote_parent is None:
            ctx = self.tracer.current_context()
            if ctx is not None:
                trace_id, remote_parent = ctx
        return rec.span(
            name, attributes, trace_id=trace_id, remote_parent=remote_parent
        )

    def add_cost(self, node: str, key: str, amount: int) -> None:
        """Fold a cost count into the node's innermost open span, if any."""
        if not self.enabled:
            return
        with self._lock:
            rec = self._recorders.get(node)
        if rec is None:
            return
        span = rec.current_span
        if span is not None:
            span.attributes[key] = span.attributes.get(key, 0) + amount

    # -- readout -----------------------------------------------------------

    def drain_all(self) -> list[Span]:
        """Local (in-process) drain of every recorder, for tests/benches."""
        spans: list[Span] = []
        with self._lock:
            recorders = list(self._recorders.values())
        for rec in recorders:
            spans.extend(span_from_dict(d) for d in rec.drain())
        return spans

    def dropped_spans(self) -> int:
        with self._lock:
            return sum(r.dropped_spans for r in self._recorders.values())


def run_collection_round(
    hub: TelemetryHub,
    net,
    node_ids: list[str] | None = None,
    collector: str = "obs-collector",
) -> list[Span]:
    """Ship every node's flight-recorder spans to the coordinator.

    One ``obs.collect`` request per node, one ``obs.spans`` reply each —
    a real wire round over whatever transport ``net`` is (the simulated
    network or a TCP channel adapter), so span readout has the same
    delivery semantics as the protocols it observes.  Replaces the
    node's handler registration for the duration (the query the spans
    describe has already quiesced on this per-query network).
    """
    from repro.net.message import Message

    if not hub.enabled:
        return []
    node_ids = list(node_ids) if node_ids is not None else hub.node_ids()
    if not node_ids:
        return []
    collected: list[Span] = []

    def on_spans(msg, _transport) -> None:
        collected.extend(span_from_dict(d) for d in msg.payload["spans"])

    def make_responder(node_id: str):
        def on_collect(msg, transport) -> None:
            transport.send(
                msg.reply(SPANS_KIND, {"spans": hub.recorder(node_id).drain()})
            )

        return on_collect

    net.register(collector, on_spans)
    for node_id in node_ids:
        net.register(node_id, make_responder(node_id))
    for node_id in node_ids:
        net.send(
            Message(src=collector, dst=node_id, kind=COLLECT_KIND, payload={})
        )
    net.run()
    return collected

"""Nested-span tracer with a zero-overhead disabled mode.

A :class:`Tracer` produces :class:`Span` objects arranged in a tree:
``with tracer.span("query.execute"):`` opens a span, and every span (or
event) created inside the ``with`` block becomes its child.  Timestamps
come from a monotonic clock (``time.perf_counter`` by default; injectable
for tests), span ids are sequential per tracer, and finished spans are
collected in completion order — so two runs of the same deterministic
protocol produce identical traces modulo timestamps.

Every party of the deployment records into the one tracer of its
process, and two :class:`Span` fields say where a span belongs:

* ``trace_id`` — one id per logical request (an ``audit.query``, a
  scheduled query, an integrity sweep, ...).  Root spans are assigned
  one automatically; children inherit it.
* ``node`` — the party that recorded the span: the span's ``node``
  attribute (the transports' ``node.<kind>`` handler spans and
  ``SmcContext.node_span`` set it).  ``None`` means the coordinator.

A span opened without an explicit parent goes under the innermost open
span of its own party, else under the innermost coordinator span, else
under whatever span is open — so a coordinator span opened inside a
handler stays beside the party's handler span, exactly where it would be
if the parties ran elsewhere.  Wire context is a ``(trace_id, span_id)``
pair (:meth:`Tracer.current_context`), carried by
``Message.trace_id`` / ``Message.parent_span_id``; a transport opens
each handler span directly under it (``span(..., parent=...)``), which
keeps the sender → receiver chain ``--critical-path`` walks.

Disabled tracing is the default everywhere: :data:`NOOP_TRACER` exposes
the same interface but allocates nothing — ``span()`` returns one shared
reusable context manager yielding one shared inert span.  Hot paths that
build attribute dicts per call should additionally gate on
``tracer.enabled`` (the transports do).

The span stack lives in a :mod:`contextvars` variable, so the tracer is
safe to share across threads — the scheduler's worker, the TCP
transport's loop thread — each of which starts with an empty stack and
nests its own spans.  Events fired with no open span land in a
bounded *orphan buffer* (and count in ``orphan_events_total``, which
``/metrics`` renders as ``repro_obs_orphan_events_total``) instead of
being silently lost.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "DEFAULT_ORPHAN_BUFFER",
]

DEFAULT_ORPHAN_BUFFER = 256


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (send/recv/leakage/...)."""

    name: str
    timestamp: float
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ts": self.timestamp,
            "attributes": dict(self.attributes),
        }


@dataclass
class Span:
    """One traced operation: a named interval with attributes and events."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    trace_id: str | None = None
    node: str | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def set_attributes(self, mapping: dict) -> None:
        self.attributes.update(mapping)

    def add_event(
        self, name: str, attributes: dict | None = None, timestamp: float | None = None
    ) -> None:
        self.events.append(
            SpanEvent(
                name=name,
                timestamp=time.perf_counter() if timestamp is None else timestamp,
                attributes=dict(attributes or {}),
            )
        )


class Tracer:
    """Collects a tree of spans across one run.

    Parameters
    ----------
    clock:
        Monotonic time source.  Tests inject a counter to make timestamps
        (not just structure) deterministic.
    orphan_capacity:
        Bound on the orphan-event ring buffer (events fired with no open
        span).  Defaults to :data:`DEFAULT_ORPHAN_BUFFER` (256).
    """

    enabled = True

    def __init__(
        self,
        clock=time.perf_counter,
        orphan_capacity: int = DEFAULT_ORPHAN_BUFFER,
    ) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._finished: list[Span] = []
        self._lock = threading.Lock()
        # The open-span stack is an *immutable tuple* in a context
        # variable: per-thread (fresh threads start with the default) and
        # per-asyncio-task (each task runs in a context copy, and because
        # the tuple is never mutated in place, sibling tasks that copied
        # the same context cannot corrupt each other's nesting).
        self._stack_var: contextvars.ContextVar[tuple[Span, ...]] = (
            contextvars.ContextVar("repro_span_stack", default=())
        )
        self._orphans: deque[SpanEvent] = deque(maxlen=max(1, orphan_capacity))
        self.orphan_events_total = 0

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> tuple[Span, ...]:
        return self._stack_var.get()

    @property
    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> tuple[str | None, int | None]:
        """``(trace_id, span_id)`` of the innermost open span, or
        ``(None, None)`` when no span is open.

        This is what a transport stamps onto an outgoing message so the
        receiving party can open its handler span under the right parent.
        """
        span = self.current_span
        if span is None:
            return (None, None)
        return (span.trace_id, span.span_id)

    def _owner(self, node: str | None) -> Span | None:
        """Innermost open span of ``node``, else of the coordinator, else any."""
        stack = self._stack()
        for wanted in (node, None):
            for span in reversed(stack):
                if span.node == wanted:
                    return span
        return stack[-1] if stack else None

    def _new_trace_id(self) -> str:
        with self._lock:
            return f"t{next(self._trace_ids)}"

    @contextmanager
    def span(
        self,
        name: str,
        attributes: dict | None = None,
        *,
        parent: tuple[str | None, int | None] | None = None,
    ):
        """Open a span for the block: a child, or a new trace's root.

        ``parent`` is a ``(trace_id, span_id)`` pair of this tracer, as
        :meth:`current_context` returns and a message carries; the span
        opens directly under it.  Without one (or with a ``None`` span
        id) the parent is the innermost open span of the span's party
        (its ``node`` attribute), see the module docstring.
        """
        attributes = dict(attributes or {})
        node = attributes.get("node")
        trace_id, parent_id = parent or (None, None)
        if parent_id is None:
            owner = self._owner(node)
            if owner is None:
                trace_id = self._new_trace_id()
            else:
                trace_id, parent_id = owner.trace_id, owner.span_id
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start=self._clock(),
            attributes=attributes,
            trace_id=trace_id,
            node=node,
        )
        token = self._stack_var.set(self._stack() + (span,))
        try:
            yield span
        finally:
            self._stack_var.reset(token)
            span.end = self._clock()
            with self._lock:
                self._finished.append(span)

    def add_cost(self, node: str, key: str, amount: int) -> None:
        """Add ``amount`` to ``key`` on the innermost open span of ``node``.

        This is how a party's modexps land on the span of the handler (or
        bootstrap step) that performed them; with no such span open the
        count is dropped (the crypto counters still have it).
        """
        for span in reversed(self._stack()):
            if span.node == node:
                span.attributes[key] = span.attributes.get(key, 0) + amount
                return

    def add_event(self, name: str, attributes: dict | None = None) -> None:
        """Attach an event to the innermost open coordinator span (else to
        the innermost open span).

        With no open span on this thread the event goes to the bounded
        orphan buffer (and :attr:`orphan_events_total`) instead of being lost —
        callers never need a guard either way.
        """
        span = self._owner(None)
        if span is not None:
            span.add_event(name, attributes, timestamp=self._clock())
            return
        event = SpanEvent(
            name=name, timestamp=self._clock(), attributes=dict(attributes or {})
        )
        with self._lock:
            self._orphans.append(event)
            self.orphan_events_total += 1

    # -- inspection --------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """All closed spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._finished)

    def root_spans(self) -> list[Span]:
        return [s for s in self.finished_spans() if s.parent_id is None]

    def orphan_events(self) -> list[SpanEvent]:
        """Buffered events that had no open span (oldest dropped first)."""
        with self._lock:
            return list(self._orphans)

    def reset(self) -> None:
        """Drop collected spans and restart the id sequence."""
        with self._lock:
            self._finished.clear()
            self._ids = itertools.count(1)
            self._trace_ids = itertools.count(1)
            self._orphans.clear()


class _NoopSpan:
    """Shared inert span: accepts the Span API, records nothing."""

    __slots__ = ()

    name = ""
    span_id = 0
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes: dict = {}
    events: list = []
    trace_id = None
    node = None

    def set_attribute(self, key, value) -> None:
        pass

    def set_attributes(self, mapping) -> None:
        pass

    def add_event(self, name, attributes=None, timestamp=None) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _NoopSpanContext:
    """Stateless reusable context manager yielding the shared no-op span."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_CONTEXT = _NoopSpanContext()


class NoopTracer:
    """Tracing disabled: the same interface, no allocation, no recording."""

    enabled = False
    current_span = None
    orphan_events_total = 0

    def span(
        self,
        name: str,
        attributes: dict | None = None,
        *,
        parent: tuple[str | None, int | None] | None = None,
    ) -> _NoopSpanContext:
        return _NOOP_CONTEXT

    def current_context(self) -> tuple[None, None]:
        return (None, None)

    def add_event(self, name: str, attributes: dict | None = None) -> None:
        pass

    def finished_spans(self) -> list[Span]:
        return []

    def root_spans(self) -> list[Span]:
        return []

    def orphan_events(self) -> list[SpanEvent]:
        return []

    def reset(self) -> None:
        pass


NOOP_TRACER = NoopTracer()

"""Nested-span tracer with a zero-overhead disabled mode.

A :class:`Tracer` produces :class:`Span` objects arranged in a tree:
``with tracer.span("query.execute"):`` opens a span, and every span (or
event) created inside the ``with`` block becomes its child.  Timestamps
come from a monotonic clock (``time.perf_counter`` by default; injectable
for tests), span ids are sequential per tracer, and finished spans are
collected in completion order — so two runs of the same deterministic
protocol produce identical traces modulo timestamps.

Cross-node tracing builds on three optional :class:`Span` fields:

* ``trace_id`` — one id per logical request (an ``audit.query``, a
  scheduled query, ...).  Root spans are assigned one automatically;
  children inherit it.  Carried on the wire by ``Message.trace_id``.
* ``node`` — which party recorded the span (``None`` means the
  coordinator process).  Per-node recorders
  (:class:`repro.obs.flight.FlightRecorder`) set it once at
  construction.
* ``remote_parent`` — a cross-tracer parent reference ``"node:span_id"``
  (see :attr:`Span.ref`).  Span ids are only unique *per tracer*, so a
  parent on another node is named by this string, carried on the wire by
  ``Message.parent_span_id`` and resolved later by
  :func:`repro.obs.assemble.assemble_forest`.

Disabled tracing is the default everywhere: :data:`NOOP_TRACER` exposes
the same interface but allocates nothing — ``span()`` returns one shared
reusable context manager yielding one shared inert span.  Hot paths that
build attribute dicts per call should additionally gate on
``tracer.enabled`` (the transports do).

The span stack lives in a :mod:`contextvars` variable, so the tracer is
safe to share across the TCP transport's reader threads (each thread
nests its own spans, exactly as the previous thread-local stack did)
*and* across interleaved coroutines on one event loop (each
``asyncio.Task`` runs in its own context copy, so two pipelined SMC
rounds never corrupt each other's span nesting — the invariant
``repro.aio`` depends on).  Events fired with no open span land in a
bounded *orphan buffer* (and count toward the
``repro_obs_orphan_events_total`` metric when a registry is attached)
instead of being silently lost.
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
    remote_parent: str | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def ref(self) -> str:
        """Globally-meaningful span reference: ``"node:span_id"``."""
        return f"{self.node or 'coord'}:{self.span_id}"

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
    node:
        Identity stamped on every span this tracer records (``None`` =
        the coordinator process).  Per-node flight recorders set it.
    orphan_capacity:
        Bound on the orphan-event ring buffer (events fired with no open
        span).  Defaults to :data:`DEFAULT_ORPHAN_BUFFER` (256).
    """

    enabled = True

    def __init__(
        self,
        clock=time.perf_counter,
        node: str | None = None,
        orphan_capacity: int = DEFAULT_ORPHAN_BUFFER,
    ) -> None:
        self._clock = clock
        self.node = node
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
        self._orphan_counter = None

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> tuple[Span, ...]:
        return self._stack_var.get()

    def detach_context(self) -> None:
        """Clear the open-span stack in *this* execution context.

        ``asyncio.run_coroutine_threadsafe`` copies the submitting
        thread's context into the new task — including any span that
        thread happens to have open.  A per-query task calls this first
        so its ``sched.query`` span is a genuine root, not an accidental
        child of whatever the submitter was doing.  Sync callers never
        need it.
        """
        self._stack_var.set(())

    @property
    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> tuple[str | None, str] | None:
        """``(trace_id, ref)`` of the innermost open span, or ``None``.

        This is what a transport stamps onto an outgoing message so the
        receiving node can open its handler span under the right parent.
        """
        span = self.current_span
        if span is None:
            return None
        return (span.trace_id, span.ref)

    def _new_trace_id(self) -> str:
        with self._lock:
            return f"{self.node or 'coord'}-t{next(self._trace_ids)}"

    def _store(self, span: Span) -> None:
        """Storage hook: subclasses (the flight recorder) bound it."""
        with self._lock:
            self._finished.append(span)

    @contextmanager
    def span(
        self,
        name: str,
        attributes: dict | None = None,
        *,
        trace_id: str | None = None,
        remote_parent: str | None = None,
    ):
        """Open a child of the current span (or a root span) for the block.

        ``trace_id``/``remote_parent`` seed a *root* span from propagated
        wire context; nested spans inherit the local parent's trace and
        ignore them (the local parentage is strictly more precise).
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        if parent is not None:
            tid = parent.trace_id
            remote = None
        else:
            tid = trace_id if trace_id is not None else self._new_trace_id()
            remote = remote_parent
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            start=self._clock(),
            attributes=dict(attributes or {}),
            trace_id=tid,
            node=self.node,
            remote_parent=remote,
        )
        token = self._stack_var.set(stack + (span,))
        try:
            yield span
        finally:
            self._stack_var.reset(token)
            span.end = self._clock()
            self._store(span)

    def add_event(self, name: str, attributes: dict | None = None) -> None:
        """Attach an event to the innermost open span.

        With no open span on this thread the event goes to the bounded
        orphan buffer (and the orphan counter) instead of being lost —
        callers never need a guard either way.
        """
        span = self.current_span
        if span is not None:
            span.add_event(name, attributes, timestamp=self._clock())
            return
        event = SpanEvent(
            name=name, timestamp=self._clock(), attributes=dict(attributes or {})
        )
        with self._lock:
            self._orphans.append(event)
            self.orphan_events_total += 1
        if self._orphan_counter is not None:
            self._orphan_counter.inc()

    def attach_metrics(self, registry) -> None:
        """Feed orphan-event counts into ``repro_obs_orphan_events_total``."""
        self._orphan_counter = registry.counter(
            "repro_obs_orphan_events_total",
            help="tracer events fired on threads with no open span",
        )

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
    remote_parent = None
    ref = "coord:0"

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
    node = None
    orphan_events_total = 0

    def span(
        self,
        name: str,
        attributes: dict | None = None,
        *,
        trace_id: str | None = None,
        remote_parent: str | None = None,
    ) -> _NoopSpanContext:
        return _NOOP_CONTEXT

    def current_context(self) -> None:
        return None

    def detach_context(self) -> None:
        pass

    def add_event(self, name: str, attributes: dict | None = None) -> None:
        pass

    def attach_metrics(self, registry) -> None:
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

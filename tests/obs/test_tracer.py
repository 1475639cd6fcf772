"""Unit tests for the span tracer and its no-op twin."""

import threading

import pytest

from repro.obs import NOOP_TRACER, NoopTracer, Tracer


class _FakeClock:
    """Deterministic monotonic clock for timestamp-exact assertions."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestTracer:
    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("run") as run:
            with tracer.span("protocol") as proto:
                with tracer.span("stage"):
                    pass
            with tracer.span("protocol2"):
                pass
        spans = tracer.finished_spans()
        by_name = {s.name: s for s in spans}
        assert by_name["protocol"].parent_id == run.span_id
        assert by_name["stage"].parent_id == proto.span_id
        assert by_name["protocol2"].parent_id == run.span_id
        assert by_name["run"].parent_id is None

    def test_finished_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["inner", "outer"]

    def test_span_ids_sequential_and_deterministic(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [s.span_id for s in tracer.finished_spans()]
        assert ids == [1, 2]

    def test_monotonic_timestamps(self):
        clock = _FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.finished_spans()
        assert outer.start < inner.start < inner.end < outer.end
        assert inner.duration == inner.end - inner.start

    def test_attributes_and_events(self):
        tracer = Tracer()
        with tracer.span("s", {"k": 1}) as span:
            span.set_attribute("extra", "v")
            span.add_event("evt", {"x": 2})
            tracer.add_event("evt2")
        (finished,) = tracer.finished_spans()
        assert finished.attributes == {"k": 1, "extra": "v"}
        assert [e.name for e in finished.events] == ["evt", "evt2"]
        assert finished.events[0].attributes == {"x": 2}

    def test_add_event_without_open_span_is_dropped(self):
        tracer = Tracer()
        tracer.add_event("orphan")  # must not raise
        with tracer.span("s"):
            pass
        (span,) = tracer.finished_spans()
        assert span.events == []

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("fails"):
                raise RuntimeError("boom")
        (span,) = tracer.finished_spans()
        assert span.end is not None
        assert tracer.current_span is None

    def test_root_spans(self):
        tracer = Tracer()
        with tracer.span("r1"):
            with tracer.span("child"):
                pass
        with tracer.span("r2"):
            pass
        assert [s.name for s in tracer.finished_spans() if s.parent_id is None] == ["r1", "r2"]

    def test_thread_local_span_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker():
            # A fresh thread has an empty stack: its span is a root.
            with tracer.span("thread-span") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["parent"] is None


class TestNoopTracer:
    def test_disabled_flag(self):
        assert NOOP_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_records_nothing(self):
        tracer = NoopTracer()
        with tracer.span("x", {"a": 1}) as span:
            span.set_attribute("k", "v")
            span.set_attributes({"m": 2})
        assert tracer.finished_spans() == []

    def test_shared_context_manager_is_reentrant(self):
        tracer = NoopTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.finished_spans() == []


class TestOrphanEvents:
    def test_orphan_metric_increments(self):
        # The count /metrics reads as repro_obs_orphan_events_total.
        tracer = Tracer()
        tracer.add_event("orphan")
        with tracer.span("s"):
            tracer.add_event("not.orphan")
        assert tracer.orphan_events_total == 1
        assert NOOP_TRACER.orphan_events_total == 0

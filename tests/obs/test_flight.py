"""Unit tests: flight recorders, the telemetry hub, and span collection.

Covers the cross-node tracing plumbing in isolation — ring-buffer
bounds, trace-context propagation through :class:`TelemetryHub`, cost
attribution into open node spans, and the ``obs.collect``/``obs.spans``
wire round over the simulated network.
"""

from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.obs import MetricsRegistry, Tracer
from repro.obs.flight import (
    COLLECT_KIND,
    DEFAULT_FLIGHT_SPANS,
    SPANS_KIND,
    FlightRecorder,
    TelemetryHub,
    run_collection_round,
)
from repro.obs.tracer import DEFAULT_ORPHAN_BUFFER


class TestFlightRecorder:
    def test_ring_buffer_bounds_and_counts_drops(self):
        rec = FlightRecorder("P1", capacity=3)
        for i in range(5):
            with rec.span(f"s{i}"):
                pass
        spans = rec.finished_spans()
        assert [s.name for s in spans] == ["s2", "s3", "s4"]
        assert rec.dropped_spans == 2

    def test_drain_empties_ring_and_round_trips(self):
        rec = FlightRecorder("P1", capacity=8)
        with rec.span("outer", {"k": 1}):
            with rec.span("inner"):
                pass
        drained = rec.drain()
        assert rec.finished_spans() == []
        assert [d["name"] for d in drained] == ["inner", "outer"]
        assert all(d["node"] == "P1" for d in drained)

    def test_spans_stamped_with_node_identity(self):
        rec = FlightRecorder("P7", capacity=8)
        with rec.span("work") as span:
            assert span.node == "P7"
            assert span.ref == f"P7:{span.span_id}"

    def test_capacity_default(self):
        assert FlightRecorder("P1").capacity == DEFAULT_FLIGHT_SPANS == 2048
        assert TelemetryHub().recorder("P1").capacity == DEFAULT_FLIGHT_SPANS


class TestTelemetryHub:
    def test_disabled_hub_is_inert(self):
        hub = TelemetryHub(tracer=None)  # defaults to NOOP_TRACER
        assert not hub.enabled
        with hub.node_span("P1", "node.x") as span:
            assert span is None
        assert hub.drain_all() == []

    def test_sender_context_prefers_open_node_span(self):
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        with tracer.span("coord.root"):
            with hub.node_span("P1", "node.handle") as node_span:
                tid, ref = hub.sender_context("P1")
                assert ref == node_span.ref
                assert tid == node_span.trace_id

    def test_sender_context_falls_back_to_coordinator(self):
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        with tracer.span("coord.root") as root:
            tid, ref = hub.sender_context("P-unknown")
            assert (tid, ref) == (root.trace_id, root.ref)
        assert hub.sender_context("P-unknown") is None

    def test_node_span_roots_under_propagated_context(self):
        hub = TelemetryHub(tracer=Tracer())
        with hub.node_span(
            "P2", "node.ssi.pass", trace_id="coord-t1", remote_parent="coord:1"
        ) as span:
            assert span.trace_id == "coord-t1"
            assert span.remote_parent == "coord:1"
            assert span.node == "P2"

    def test_node_span_bootstrap_falls_back_to_coordinator_parent(self):
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        with tracer.span("smc.intersection") as proto:
            with hub.node_span("P1", "node.ssi.encrypt") as span:
                assert span.trace_id == proto.trace_id
                assert span.remote_parent == proto.ref

    def test_add_cost_folds_into_innermost_open_span(self):
        hub = TelemetryHub(tracer=Tracer())
        with hub.node_span("P1", "node.work") as span:
            hub.add_cost("P1", "modexp", 3)
            hub.add_cost("P1", "modexp", 2)
        assert span.attributes["modexp"] == 5
        # No open span / unknown node: silently ignored.
        hub.add_cost("P1", "modexp", 1)
        hub.add_cost("P-unknown", "modexp", 1)

    def test_dropped_spans_totalled_across_recorders(self):
        hub = TelemetryHub(tracer=Tracer(), capacity=1)
        for node in ("P1", "P2"):
            for i in range(3):
                with hub.node_span(node, f"s{i}"):
                    pass
        assert hub.dropped_spans() == 4


class TestCollectionRound:
    def _hub_with_node_spans(self):
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        for node in ("P1", "P2"):
            with hub.node_span(node, "node.work", {"node": node}):
                pass
        return hub

    def test_collects_spans_over_the_wire(self):
        hub = self._hub_with_node_spans()
        net = SimNetwork()
        collected = run_collection_round(hub, net)
        assert sorted(s.node for s in collected) == ["P1", "P2"]
        assert all(s.name == "node.work" for s in collected)
        # The round drained the recorders.
        assert hub.drain_all() == []

    def test_collection_traffic_not_in_stats_ledger(self):
        hub = self._hub_with_node_spans()
        net = SimNetwork(telemetry=hub)
        run_collection_round(hub, net)
        # obs.* frames travelled but never touched the cost ledger.
        assert net.stats.messages == 0
        assert net.stats.by_kind.get(COLLECT_KIND, 0) == 0
        assert net.stats.by_kind.get(SPANS_KIND, 0) == 0

    def test_collection_does_not_trace_itself(self):
        hub = self._hub_with_node_spans()
        net = SimNetwork(telemetry=hub)
        run_collection_round(hub, net)
        leftovers = hub.drain_all()
        assert not any(s.name.startswith("node.obs.") for s in leftovers)

    def test_disabled_hub_returns_empty(self):
        hub = TelemetryHub(tracer=None)
        assert run_collection_round(hub, SimNetwork()) == []


class TestTransportPropagation:
    def test_simnet_stamps_and_wraps_dispatch(self):
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        net = SimNetwork(telemetry=hub)
        seen: list[Message] = []
        net.register("A", lambda msg, tn: None)
        net.register("B", lambda msg, tn: seen.append(msg))
        with tracer.span("coord.query") as root:
            net.send(Message(src="A", dst="B", kind="ping", payload={"x": 1}))
            net.run()
        assert seen[0].trace_id == root.trace_id
        assert seen[0].parent_span_id == root.ref
        # Dispatch opened a node span at the receiver under that parent.
        [span] = [s for s in hub.drain_all() if s.node == "B"]
        assert span.name == "node.ping"
        assert span.trace_id == root.trace_id
        assert span.remote_parent == root.ref
        assert span.attributes["messages"] == 1
        assert span.attributes["bytes"] == seen[0].size_bytes

    def test_handler_send_chains_under_node_span(self):
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        net = SimNetwork(telemetry=hub)

        def relay(msg, tn):
            if msg.kind == "hop":
                tn.send(msg.forwarded("C"))

        net.register("A", lambda msg, tn: None)
        net.register("B", relay)
        captured: list[Message] = []
        net.register("C", lambda msg, tn: captured.append(msg))
        with tracer.span("coord.query") as root:
            net.send(Message(src="A", dst="B", kind="hop", payload={}))
            net.run()
        spans = hub.drain_all()
        b_span = next(s for s in spans if s.node == "B")
        # forwarded() preserves the original context; B's own span exists
        # for attribution but the relayed message still points at the root.
        assert captured[0].trace_id == root.trace_id
        assert captured[0].parent_span_id == root.ref
        assert b_span.remote_parent == root.ref

    def test_no_stamping_when_hub_disabled(self):
        net = SimNetwork(telemetry=TelemetryHub(tracer=None))
        seen: list[Message] = []
        net.register("A", lambda msg, tn: None)
        net.register("B", lambda msg, tn: seen.append(msg))
        net.send(Message(src="A", dst="B", kind="ping", payload={}))
        net.run()
        assert seen[0].trace_id is None
        assert seen[0].parent_span_id is None


class TestOrphanEvents:
    def test_event_without_open_span_buffers(self):
        tracer = Tracer(orphan_capacity=2)
        tracer.add_event("lost.one", {"i": 1})
        tracer.add_event("lost.two", {"i": 2})
        tracer.add_event("lost.three", {"i": 3})
        names = [e.name for e in tracer.orphan_events()]
        assert names == ["lost.two", "lost.three"]  # oldest dropped
        assert tracer.orphan_events_total == 3

    def test_orphan_metric_increments(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        tracer.attach_metrics(metrics)
        tracer.add_event("orphan")
        with tracer.span("s"):
            tracer.add_event("not.orphan")
        snap = metrics.snapshot()
        values = snap["repro_obs_orphan_events_total"]["values"]
        assert sum(values.values()) == 1

    def test_orphan_capacity_bounds_the_buffer(self):
        assert Tracer()._orphans.maxlen == DEFAULT_ORPHAN_BUFFER == 256
        tracer = Tracer(orphan_capacity=1)
        tracer.add_event("a")
        tracer.add_event("b")
        assert [e.name for e in tracer.orphan_events()] == ["b"]

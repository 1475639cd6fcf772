"""Unit tests: handler spans and per-party attribution on the one tracer.

Every party records into the process's one :class:`Tracer`.  A traced
transport stamps each fresh message with the sender's open span and runs
each handler inside a ``node.<kind>`` span directly under it; a span's
party is its ``node`` attribute, and a party's modexps land on its
innermost open span.
"""

from repro.crypto import DeterministicRng
from repro.crypto.pohlig_hellman import shared_prime
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.obs import NOOP_TRACER, Tracer
from repro.smc.base import SmcContext


def _ctx(tracer) -> SmcContext:
    return SmcContext(
        shared_prime(64), DeterministicRng(b"handler-spans"), tracer=tracer
    )


class TestPartyAttribution:
    def test_spans_stamped_with_node_identity(self):
        tracer = Tracer()
        with _ctx(tracer).node_span("P7", "work") as span:
            assert span.node == "P7"
            assert span.attributes["node"] == "P7"
        with tracer.span("coord.work") as coord:
            assert coord.node is None

    def test_disabled_tracer_is_inert(self):
        ctx = _ctx(None)  # defaults to NOOP_TRACER
        assert ctx.tracer is NOOP_TRACER
        with ctx.node_span("P1", "node.x"):
            ctx.count_modexp("P1", 3)
        assert ctx.tracer.finished_spans() == []
        assert ctx.crypto_ops.modexp == 3

    def test_current_context_is_the_open_node_span(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span("coord.root"):
            with ctx.node_span("P1", "node.handle") as node_span:
                assert tracer.current_context() == (
                    node_span.trace_id, node_span.span_id
                )

    def test_current_context_falls_back_to_coordinator(self):
        tracer = Tracer()
        with tracer.span("coord.root") as root:
            assert tracer.current_context() == (root.trace_id, root.span_id)
        assert tracer.current_context() == (None, None)

    def test_span_opens_under_explicit_parent(self):
        tracer = Tracer()
        with tracer.span("audit.query") as root:
            pass
        with tracer.span("other.root"):
            with tracer.span(
                "node.ssi.pass", {"node": "P2"},
                parent=(root.trace_id, root.span_id),
            ) as span:
                assert (span.trace_id, span.parent_id) == (
                    root.trace_id, root.span_id
                )
                assert span.node == "P2"

    def test_node_span_bootstrap_falls_back_to_coordinator_parent(self):
        tracer = Tracer()
        with tracer.span("smc.intersection") as proto:
            with _ctx(tracer).node_span("P1", "node.ssi.encrypt") as span:
                assert span.trace_id == proto.trace_id
                assert span.parent_id == proto.span_id

    def test_coordinator_span_in_a_handler_stays_under_the_coordinator(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with tracer.span("smc.intersection") as proto:
            with ctx.node_span("P1", "node.ssi.relay") as relay:
                with tracer.span("ssi.hop") as hop:
                    pass
                tracer.add_event("net.send")
                with ctx.node_span("P1", "node.inner") as inner:
                    pass
        assert hop.parent_id == proto.span_id
        assert [e.name for e in proto.events] == ["net.send"]
        assert inner.parent_id == relay.span_id  # nested at its own party

    def test_add_cost_folds_into_innermost_open_span(self):
        tracer = Tracer()
        ctx = _ctx(tracer)
        with ctx.node_span("P1", "node.work") as outer:
            with ctx.node_span("P2", "node.other") as other:
                ctx.count_modexp("P1", 3)
                ctx.count_modexp("P1", 2)
        assert outer.attributes["modexp"] == 5
        assert "modexp" not in other.attributes
        # No open span of that party: dropped from the spans, still counted.
        ctx.count_modexp("P1", 1)
        ctx.count_modexp("P-unknown", 1)
        assert ctx.crypto_ops.modexp == 7


class TestTransportPropagation:
    def test_simnet_stamps_and_wraps_dispatch(self):
        tracer = Tracer()
        net = SimNetwork(tracer=tracer)
        seen: list[Message] = []
        net.register("A", lambda msg, tn: None)
        net.register("B", lambda msg, tn: seen.append(msg))
        with tracer.span("coord.query") as root:
            net.send(Message(src="A", dst="B", kind="ping", payload={"x": 1}))
            net.run()
        assert seen[0].trace_id == root.trace_id
        assert seen[0].parent_span_id == root.span_id
        # Dispatch opened a span at the receiver under that parent.
        [span] = [s for s in tracer.finished_spans() if s.node == "B"]
        assert span.name == "node.ping"
        assert (span.trace_id, span.parent_id) == (root.trace_id, root.span_id)
        assert span.attributes["messages"] == 1
        assert span.attributes["bytes"] == seen[0].size_bytes

    def test_handler_send_chains_under_node_span(self):
        tracer = Tracer()
        net = SimNetwork(tracer=tracer)

        def relay(msg, tn):
            # A fresh message sent mid-delivery, and a relay of the
            # incoming one.
            tn.send(Message(src="B", dst="C", kind="next", payload={}))
            tn.send(msg.forwarded("C"))

        net.register("A", lambda msg, tn: None)
        net.register("B", relay)
        captured: list[Message] = []
        net.register("C", lambda msg, tn: captured.append(msg))
        with tracer.span("coord.query") as root:
            net.send(Message(src="A", dst="B", kind="hop", payload={}))
            net.run()
        spans = {(s.node, s.name): s for s in tracer.finished_spans()}
        b_span = spans["B", "node.hop"]
        assert b_span.parent_id == root.span_id
        fresh, relayed = sorted(captured, key=lambda m: m.kind != "next")
        # The next hop's span chains under the handler that sent it ...
        assert fresh.parent_span_id == b_span.span_id
        assert spans["C", "node.next"].parent_id == b_span.span_id
        # ... while forwarded() preserves the context it arrived with.
        assert relayed.parent_span_id == root.span_id
        assert spans["C", "node.hop"].parent_id == root.span_id
        assert {s.trace_id for s in spans.values()} == {root.trace_id}

    def test_no_stamping_when_tracer_disabled(self):
        net = SimNetwork()
        seen: list[Message] = []
        net.register("A", lambda msg, tn: None)
        net.register("B", lambda msg, tn: seen.append(msg))
        net.send(Message(src="A", dst="B", kind="ping", payload={}))
        net.run()
        assert seen[0].trace_id is None
        assert seen[0].parent_span_id is None

"""Acceptance: cross-node tracing over real TCP sockets.

The tentpole contract, exercised on the socket transport: a traced query
(here the Figure 4 intersection under an ``audit.query`` root span)
propagates its trace context inside the frames, every party records
flight-recorder spans locally, the collection round ships them back as
``obs.spans`` frames, and assembly produces ONE cross-node tree whose
per-node cost attributions sum exactly to the run's cost ledgers.
"""

import time

from repro.crypto import DeterministicRng
from repro.crypto.pohlig_hellman import shared_prime
from repro.net.message import Message
from repro.aio import AsyncTcpCluster
from repro.obs import Tracer
from repro.obs.assemble import assemble_forest, assemble_trace, trace_ids
from repro.obs.flight import COLLECT_KIND, SPANS_KIND, TelemetryHub
from repro.obs.export import span_from_dict
from repro.smc.base import SmcContext
from repro.smc.intersection import IntersectionParty

FIG4_SETS = {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]}
COLLECTOR = "obs-collector"


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _telemetry_handler(party, pid, hub):
    """The party's normal handler, plus the ``obs.collect`` responder."""

    def handle(msg, transport):
        if msg.kind == COLLECT_KIND:
            transport.send(
                msg.reply(SPANS_KIND, {"spans": hub.recorder(pid).drain()})
            )
        else:
            party.handle(msg, transport)

    return handle


class TestCrossNodeTraceOverTcp:
    def test_audit_query_assembles_to_single_tree_with_exact_costs(self):
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        # The parties get the hub but NOT the coordinator's tracer: remote
        # nodes record into their own flight recorders; protocol spans
        # opened on socket reader threads would otherwise start fresh
        # coordinator traces.
        ctx = SmcContext(
            shared_prime(64), DeterministicRng(b"tcp-trace"), telemetry=hub
        )
        parties = sorted(FIG4_SETS)
        nodes = {
            pid: IntersectionParty(
                pid, FIG4_SETS[pid], ctx, parties, parties, parties[0]
            )
            for pid in parties
        }
        collected: dict[str, list] = {}

        def on_spans(msg, _transport):
            collected[msg.src] = [span_from_dict(d) for d in msg.payload["spans"]]

        with AsyncTcpCluster(parties + [COLLECTOR], telemetry=hub) as cluster:
            for pid, party in nodes.items():
                cluster[pid].set_handler(_telemetry_handler(party, pid, hub))
            cluster[COLLECTOR].set_handler(on_spans)

            with tracer.span("audit.query", {"criterion": "fig4"}) as root:
                for pid, party in nodes.items():
                    party.start(cluster[pid])
                assert wait_until(
                    lambda: all(nodes[p].state.result is not None for p in parties)
                ), "protocol did not complete over TCP"

            # Collection round: spans travel back as real obs.spans frames.
            for pid in parties:
                cluster[COLLECTOR].send(
                    Message(src=COLLECTOR, dst=pid, kind=COLLECT_KIND, payload={})
                )
            assert wait_until(lambda: set(collected) == set(parties))

            # Cost ledgers: sender-side message/byte counts, obs.* excluded.
            sent_messages = sum(cluster[p].stats.messages for p in parties)
            sent_bytes = sum(cluster[p].stats.bytes for p in parties)
            assert cluster[COLLECTOR].stats.messages == 0  # only obs.* traffic

        for pid in parties:
            assert nodes[pid].state.result == ["e"]

        node_spans = [s for batch in collected.values() for s in batch]
        all_spans = tracer.finished_spans() + node_spans

        # One trace, one tree: every span carries the root's trace id and
        # assembly resolves every remote parent.
        assert trace_ids(all_spans) == [root.trace_id]
        assembled = assemble_trace(all_spans, root.trace_id)
        assert assembled == assemble_forest(all_spans)
        roots = [s for s in assembled if s.parent_id is None]
        assert [r.name for r in roots] == ["audit.query"]
        assert not any("unresolved_parent" in s.attributes for s in assembled)

        # Exact reconciliation: per-node span attributions sum to the
        # query's cost ledgers — every delivered message counted once at
        # its receiver's dispatch span, every modexp where it ran.
        dispatch = [s for s in node_spans if "messages" in s.attributes]
        assert sum(s.attributes["messages"] for s in dispatch) == sent_messages
        assert sum(s.attributes["bytes"] for s in dispatch) == sent_bytes
        span_modexp = sum(s.attributes.get("modexp", 0) for s in node_spans)
        assert span_modexp == ctx.crypto_ops.modexp
        assert sent_messages > 0 and span_modexp > 0

        # Every protocol party recorded spans on its own node.
        assert {s.node for s in node_spans} == set(parties)

"""Acceptance: one trace tree over real TCP sockets.

A traced query (here the Figure 4 intersection under an ``audit.query``
root span) carries its trace context inside the frames; every party
records its ``node.<kind>`` handler spans into the one tracer of the
process, each directly under the span the frame was sent from.  The
result is ONE tree whose per-node cost attributions sum exactly to the
run's cost ledgers.
"""

import time

from repro.crypto import DeterministicRng
from repro.crypto.pohlig_hellman import shared_prime
from repro.net.tcp import TcpCluster
from repro.obs import Tracer
from repro.smc.base import SmcContext
from repro.smc.intersection import IntersectionParty

FIG4_SETS = {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]}


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestCrossNodeTraceOverTcp:
    def test_audit_query_assembles_to_single_tree_with_exact_costs(self):
        tracer = Tracer()
        ctx = SmcContext(
            shared_prime(64), DeterministicRng(b"tcp-trace"), tracer=tracer
        )
        parties = sorted(FIG4_SETS)
        nodes = {
            pid: IntersectionParty(
                pid, FIG4_SETS[pid], ctx, parties, parties, parties[0]
            )
            for pid in parties
        }
        with TcpCluster(parties, tracer=tracer) as cluster:
            for pid, party in nodes.items():
                cluster[pid].set_handler(party.handle)

            with tracer.span("audit.query", {"criterion": "fig4"}) as root:
                for pid, party in nodes.items():
                    party.start(cluster[pid])
                assert wait_until(
                    lambda: all(nodes[p].state.result is not None for p in parties)
                ), "protocol did not complete over TCP"

            sent_messages = sum(cluster[p].stats.messages for p in parties)
            sent_bytes = sum(cluster[p].stats.bytes for p in parties)
            # The last handler span closes just after its result lands.
            assert wait_until(
                lambda: sum(
                    s.attributes.get("messages", 0)
                    for s in tracer.finished_spans()
                    if s.node is not None
                ) == sent_messages
            )

        for pid in parties:
            assert nodes[pid].state.result == ["e"]

        spans = tracer.finished_spans()
        node_spans = [s for s in spans if s.node is not None]

        # One trace, one tree: every span carries the root's trace id and
        # every parent link resolves inside the tracer.
        assert {s.trace_id for s in spans} == {root.trace_id}
        ids = {s.span_id for s in spans}
        assert [s.name for s in spans if s.parent_id is None] == ["audit.query"]
        assert all(s.parent_id in ids for s in spans if s.parent_id is not None)

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

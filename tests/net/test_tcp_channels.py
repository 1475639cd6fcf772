"""Channel-tagged delivery over the real-socket transport.

The scheduler's per-query channel tag rides the wire (codec key ``"ch"``)
so concurrent queries multiplexed over one TCP link dispatch to their own
handlers — same isolation contract the in-memory ChannelMux gives.
"""

from __future__ import annotations

import threading

from repro.net.message import Message
from repro.aio import AsyncTcpCluster


def _tagged(src: str, dst: str, kind: str, payload, tag: str | None) -> Message:
    msg = Message(src=src, dst=dst, kind=kind, payload=payload)
    msg.channel = tag
    return msg


class TestTcpChannelDispatch:
    def test_channels_dispatch_to_their_own_handlers(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            seen_qa: list = []
            seen_qb: list = []
            done = threading.Event()

            def make_handler(sink):
                def handler(msg, node):
                    sink.append((msg.channel, msg.payload))
                    if len(seen_qa) + len(seen_qb) == 4:
                        done.set()

                return handler

            cluster["B"].register_channel("qa", make_handler(seen_qa))
            cluster["B"].register_channel("qb", make_handler(seen_qb))
            for i in range(2):
                cluster["A"].send(_tagged("A", "B", "x.k", {"i": i}, "qa"))
                cluster["A"].send(_tagged("A", "B", "x.k", {"i": i}, "qb"))
            assert done.wait(10.0)
            assert seen_qa == [("qa", {"i": 0}), ("qa", {"i": 1})]
            assert seen_qb == [("qb", {"i": 0}), ("qb", {"i": 1})]

    def test_untagged_traffic_still_reaches_default_handler(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            default_seen: list = []
            channel_seen: list = []
            done = threading.Event()

            def default_handler(msg, node):
                default_seen.append(msg.payload)
                done.set()

            cluster["B"].register_channel(
                "qa", lambda msg, node: channel_seen.append(msg.payload)
            )
            cluster["B"].set_handler(default_handler)
            cluster["A"].send(Message(src="A", dst="B", kind="x.plain", payload=7))
            assert done.wait(10.0)
            assert default_seen == [7]
            assert channel_seen == []

    def test_unknown_channel_falls_back_to_inbox(self):
        """A tag with no registered handler degrades to pull-style
        delivery instead of being lost."""
        with AsyncTcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(_tagged("A", "B", "x.k", {"v": 1}, "q-unknown"))
            msg = cluster["B"].receive(timeout=5.0)
            assert msg.channel == "q-unknown"
            assert msg.payload == {"v": 1}

    def test_unregister_channel_stops_dispatch(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            seen: list = []
            first = threading.Event()

            def handler(msg, node):
                seen.append(msg.payload)
                first.set()

            cluster["B"].register_channel("qa", handler)
            cluster["A"].send(_tagged("A", "B", "x.k", 1, "qa"))
            assert first.wait(10.0)
            cluster["B"].unregister_channel("qa")
            cluster["A"].send(_tagged("A", "B", "x.k", 2, "qa"))
            msg = cluster["B"].receive(timeout=5.0)  # falls back to inbox
            assert msg.payload == 2
            assert seen == [1]

    def test_reply_keeps_the_channel_on_the_wire(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            answers: list = []
            done = threading.Event()

            def ponger(msg, node):
                node.send(msg.reply("x.pong", msg.payload + 1))

            def collector(msg, node):
                answers.append((msg.channel, msg.payload))
                done.set()

            cluster["B"].register_channel("q1", ponger)
            cluster["A"].register_channel("q1", collector)
            cluster["A"].send(_tagged("A", "B", "x.ping", 41, "q1"))
            assert done.wait(10.0)
            assert answers == [("q1", 42)]

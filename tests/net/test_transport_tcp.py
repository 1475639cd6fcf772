"""Integration tests for the real-socket transport."""

import threading

import pytest

from repro.errors import NodeUnreachableError, TransportClosedError, TransportTimeout
from repro.net.message import Message
from repro.aio import AsyncTcpCluster, AsyncTcpNode


class TestTcpNode:
    def test_send_receive_pull_style(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload={"v": 1}))
            msg = cluster["B"].receive(timeout=5.0)
            assert msg.payload == {"v": 1} and msg.src == "A"

    def test_handler_dispatch(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            got = threading.Event()
            seen = []

            def handler(msg, node):
                seen.append(msg.payload)
                got.set()

            cluster["B"].set_handler(handler)
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=2**200))
            assert got.wait(5.0)
            assert seen == [2**200]

    def test_bidirectional(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            done = threading.Event()
            answers = []

            def ponger(msg, node):
                node.send(
                    Message(src=msg.dst, dst=msg.src, kind="pong", payload=msg.payload + 1)
                )

            def collector(msg, node):
                answers.append(msg.payload)
                done.set()

            cluster["B"].set_handler(ponger)
            cluster["A"].set_handler(collector)
            cluster["A"].send(Message(src="A", dst="B", kind="ping", payload=41))
            assert done.wait(5.0)
            assert answers == [42]

    def test_many_messages_ordered_per_link(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            seen = []
            done = threading.Event()

            def handler(msg, node):
                seen.append(msg.payload)
                if len(seen) == 50:
                    done.set()

            cluster["B"].set_handler(handler)
            for i in range(50):
                cluster["A"].send(Message(src="A", dst="B", kind="k", payload=i))
            assert done.wait(10.0)
            assert seen == list(range(50))  # one writer task, one stream: in order

    def test_unknown_peer(self):
        with AsyncTcpCluster(["A"]) as cluster:
            with pytest.raises(NodeUnreachableError):
                cluster["A"].send(Message(src="A", dst="nowhere", kind="k"))

    def test_closed_transport_rejects_send(self):
        node = AsyncTcpNode("solo")
        node.learn_peers({"solo": node.address})
        node.close()
        with pytest.raises(TransportClosedError):
            node.send(Message(src="solo", dst="solo", kind="k"))

    def test_receive_timeout(self):
        with AsyncTcpCluster(["A"]) as cluster:
            with pytest.raises(TransportTimeout):
                cluster["A"].receive(timeout=0.2)

    def test_stats_counted(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="data", payload="x"))
            cluster["B"].receive(timeout=5.0)
            assert cluster["A"].stats.messages == 1
            assert cluster["A"].stats.by_kind["data"] == 1

    def test_three_node_relay(self):
        """A -> B -> C relay chain over real sockets."""
        with AsyncTcpCluster(["A", "B", "C"]) as cluster:
            done = threading.Event()
            result = []

            def relay(msg, node):
                node.send(Message(src="B", dst="C", kind="k", payload=msg.payload * 2))

            def sink(msg, node):
                result.append(msg.payload)
                done.set()

            cluster["B"].set_handler(relay)
            cluster["C"].set_handler(sink)
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=21))
            assert done.wait(5.0)
            assert result == [42]


class TestNoDelay:
    def test_outbound_socket_has_nodelay(self):
        import socket

        with AsyncTcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["B"].receive(timeout=5.0)
            sock = cluster["A"]._writers["B"].get_extra_info("socket")
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_ping_pong_latency(self):
        """100 tiny round-trips must not hit Nagle/delayed-ACK stalls.

        With Nagle on, each sub-MSS write waits ~40ms for the delayed ACK,
        so 100 round-trips would take >4s; with TCP_NODELAY they take
        milliseconds.  The 2s budget is ~20x slack over a loaded CI box
        while still catching a Nagle regression by an order of magnitude.
        """
        import time

        with AsyncTcpCluster(["A", "B"]) as cluster:
            done = threading.Event()
            rounds = 100

            def ponger(msg, node):
                node.send(Message(src=msg.dst, dst=msg.src, kind="pong", payload=msg.payload))

            def pinger(msg, node):
                if msg.payload >= rounds:
                    done.set()
                    return
                node.send(Message(src="A", dst="B", kind="ping", payload=msg.payload + 1))

            cluster["B"].set_handler(ponger)
            cluster["A"].set_handler(pinger)
            start = time.perf_counter()
            cluster["A"].send(Message(src="A", dst="B", kind="ping", payload=1))
            assert done.wait(10.0)
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0, f"{rounds} round-trips took {elapsed:.2f}s"


class TestSendMany:
    def test_fan_out_to_multiple_peers(self):
        with AsyncTcpCluster(["A", "B", "C"]) as cluster:
            cluster["A"].send_many(
                [
                    Message(src="A", dst="B", kind="k", payload="to-b"),
                    Message(src="A", dst="C", kind="k", payload="to-c"),
                    Message(src="A", dst="B", kind="k", payload="to-b-2"),
                ]
            )
            assert cluster["B"].receive(timeout=5.0).payload == "to-b"
            assert cluster["B"].receive(timeout=5.0).payload == "to-b-2"
            assert cluster["C"].receive(timeout=5.0).payload == "to-c"
            assert cluster["A"].stats.messages == 3

    def test_order_preserved_within_batch(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            seen = []
            done = threading.Event()

            def handler(msg, node):
                seen.append(msg.payload)
                if len(seen) == 20:
                    done.set()

            cluster["B"].set_handler(handler)
            cluster["A"].send_many(
                [Message(src="A", dst="B", kind="k", payload=i) for i in range(20)]
            )
            assert done.wait(10.0)
            assert seen == list(range(20))

    def test_unknown_peer_rejected_before_any_write(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            with pytest.raises(NodeUnreachableError):
                cluster["A"].send_many(
                    [
                        Message(src="A", dst="B", kind="k", payload=1),
                        Message(src="A", dst="ghost", kind="k", payload=2),
                    ]
                )
            assert cluster["A"].stats.messages == 0

    def test_closed_transport_rejects(self):
        node = AsyncTcpNode("solo")
        node.close()
        with pytest.raises(TransportClosedError):
            node.send_many([Message(src="solo", dst="solo", kind="k")])

    def test_empty_batch_is_noop(self):
        with AsyncTcpCluster(["A"]) as cluster:
            cluster["A"].send_many([])
            assert cluster["A"].stats.messages == 0


class TestConnectionPoolHealth:
    def test_first_send_opens_one_pooled_connection(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=2))
            cluster["B"].receive(timeout=5.0)
            cluster["B"].receive(timeout=5.0)
            # Two sends, one pooled stream — and no reconnect recorded.
            assert dict(cluster["A"].stats.connections_open) == {"B": 1}
            assert dict(cluster["A"].stats.reconnects) == {}

    def test_broken_socket_counts_a_reconnect(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["B"].receive(timeout=5.0)
            # Kill the pooled stream from under the writer task (on its
            # loop, so the close lands before the next enqueued frame); the
            # next write fails and takes the single-retry reconnect path.
            node = cluster["A"]
            node.loop.call_soon_threadsafe(node._writers["B"].close)
            node.send(Message(src="A", dst="B", kind="k", payload=2))
            assert cluster["B"].receive(timeout=5.0).payload == 2
            assert dict(cluster["A"].stats.connections_open) == {"B": 1}
            assert dict(cluster["A"].stats.reconnects) == {"B": 1}

    def test_close_drains_the_gauge(self):
        cluster = AsyncTcpCluster(["A", "B"])
        try:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["B"].receive(timeout=5.0)
            stats = cluster["A"].stats
        finally:
            cluster.close()
        assert dict(stats.connections_open) == {}

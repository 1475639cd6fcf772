"""The socket transport on its loop: wire format, bounds, dead peers.

``tests/net/test_transport_tcp.py`` is the message-interface suite; beside
a few interface cases of its own this file pins what is particular to the
stream implementation — the frame on the wire, the bounded waits, and what
the writer tasks do when a peer stalls, dies or comes back.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
import zlib

import pytest

from repro.aio import AsyncTcpCluster, AsyncTcpNode, transport_tcp
from repro.errors import (
    DeadlineExceededError,
    NodeUnreachableError,
    TransportClosedError,
    TransportTimeout,
)
from repro.net.codec import encode_frame
from repro.net.message import Message
from repro.resilience import Deadline


def wait_until(condition, seconds: float = 10.0) -> bool:
    limit = time.monotonic() + seconds
    while not condition() and time.monotonic() < limit:
        time.sleep(0.01)
    return condition()


class TestAsyncTcpNode:
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
            assert seen == list(range(50))  # one writer task preserves order

    def test_send_many_batches_per_peer(self):
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

    def test_unknown_peer(self):
        with AsyncTcpCluster(["A"]) as cluster:
            with pytest.raises(NodeUnreachableError):
                cluster["A"].send(Message(src="A", dst="nowhere", kind="k"))

    def test_receive_timeout(self):
        with AsyncTcpCluster(["A"]) as cluster:
            with pytest.raises(TransportTimeout):
                cluster["A"].receive(timeout=0.2)

    def test_closed_transport_rejects_send(self):
        node = AsyncTcpNode("solo")
        node.learn_peers({"solo": node.address})
        node.close()
        with pytest.raises(TransportClosedError):
            node.send(Message(src="solo", dst="solo", kind="k"))


    def test_wire_is_the_codec_frame_in_both_directions(self):
        """What crosses the socket is exactly ``encode_frame``: a raw socket
        can feed a node, and a raw listener reads what a node writes."""
        with AsyncTcpNode("A") as node, socket.create_server(("127.0.0.1", 0)) as raw:
            inbound = Message(src="raw", dst="A", kind="ping", payload=41)
            with socket.create_connection(node.address) as feeder:
                feeder.sendall(encode_frame(inbound))
                assert node.receive(timeout=5.0).payload == 41

            node.learn_peers({"raw": raw.getsockname()})
            outbound = Message(src="A", dst="raw", kind="pong", payload=2**70)
            node.send(outbound)
            raw.settimeout(5.0)
            conn, _addr = raw.accept()
            with conn:
                conn.settimeout(5.0)
                expected = encode_frame(outbound)
                got = b""
                while len(got) < len(expected):
                    got += conn.recv(65536)
            assert got == expected

    def test_bad_body_frame_costs_one_message_not_the_connection(self):
        """A frame whose CRC matches but whose body does not decode is
        counted and skipped; the next frame on the same stream arrives."""
        body = (2).to_bytes(4, "big") + b"[]"
        bad = len(body).to_bytes(4, "big") + zlib.crc32(body).to_bytes(4, "big") + body
        good = Message(src="raw", dst="A", kind="ping", payload=[2**300, 7])
        with AsyncTcpNode("A") as node:
            with socket.create_connection(node.address) as feeder:
                feeder.sendall(bad + encode_frame(good))
                assert node.receive(timeout=5.0).payload == good.payload
            assert node.corrupt_frames == 1


class TestAsyncPoolHealth:
    def test_first_send_opens_one_pooled_connection(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=2))
            cluster["B"].receive(timeout=5.0)
            cluster["B"].receive(timeout=5.0)
            assert dict(cluster["A"].stats.connections_open) == {"B": 1}
            assert dict(cluster["A"].stats.reconnects) == {}

    def test_broken_stream_counts_a_reconnect(self):
        with AsyncTcpCluster(["A", "B"]) as cluster:
            node = cluster["A"]
            node.send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["B"].receive(timeout=5.0)
            # Close the pooled stream from under the writer task (on its
            # loop, so the close lands before the next enqueued frame);
            # the write fails on drain and takes the reconnect path.
            node.loop.call_soon_threadsafe(node._writers["B"].close)
            node.send(Message(src="A", dst="B", kind="k", payload=2))
            assert cluster["B"].receive(timeout=5.0).payload == 2
            assert dict(node.stats.connections_open) == {"B": 1}
            assert dict(node.stats.reconnects) == {"B": 1}

    def test_close_drains_the_gauge(self):
        cluster = AsyncTcpCluster(["A", "B"])
        try:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["B"].receive(timeout=5.0)
            stats = cluster["A"].stats
        finally:
            cluster.close()
        assert dict(stats.connections_open) == {}


class TestBounds:
    """The time bounds: connect, write drain, receive."""

    def test_stalled_connect_ends_in_transport_timeout(self, monkeypatch):
        async def never_connects(*_address):
            await asyncio.sleep(3600)

        monkeypatch.setattr(asyncio, "open_connection", never_connects)
        monkeypatch.setattr(transport_tcp, "CONNECT_TIMEOUT", 0.2)
        with AsyncTcpCluster(["A", "B"]) as cluster:
            node = cluster["A"]
            started = time.monotonic()
            with pytest.raises(TransportTimeout, match="connect to 'B'"):
                node._loop_thread.run(node._connect("B"), timeout=5.0)
            assert time.monotonic() - started < 2.0
            # Through send() nobody can be raised to: the frame is counted lost.
            node.send(Message(src="A", dst="B", kind="k", payload=1))
            assert wait_until(lambda: node.stats.dropped == 1, 5.0)
            assert node._queues == {} and node._writer_tasks == {}

    def test_peer_that_never_reads_is_abandoned(self, monkeypatch):
        """A peer that accepts and never reads must not park its writer
        task (and grow its queue) forever: the drain is bounded, the
        frames are counted lost, and the next send dials afresh."""
        monkeypatch.setattr(transport_tcp, "WRITE_TIMEOUT", 0.3, raising=False)
        listener = socket.socket()
        # Small receive buffer (inherited by the accepted socket), so a few
        # megabytes fill both kernel buffers and the drain really blocks.
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        with listener, AsyncTcpNode("A") as node:
            node.learn_peers({"B": listener.getsockname()})
            blob = "x" * (1 << 20)
            for _ in range(16):
                node.send(Message(src="A", dst="B", kind="k", payload=blob))
            accepted, _ = listener.accept()  # ... and never recv()
            with accepted:
                assert wait_until(lambda: node.stats.dropped > 0, 10.0)
                assert node._queues == {} and node._writer_tasks == {}
                assert dict(node.stats.connections_open) == {}
                assert node.stats.dropped <= 16
                # The next send starts over with a new connection.
                listener.settimeout(5.0)
                node.send(Message(src="A", dst="B", kind="k", payload="again"))
                again, _ = listener.accept()
                with again:
                    again.settimeout(5.0)
                    assert b"again" in again.recv(4096)

    def test_receive_without_a_timeout_is_bounded(self, monkeypatch):
        monkeypatch.setattr(transport_tcp, "RECV_TIMEOUT", 0.2)
        with AsyncTcpCluster(["A"]) as cluster:
            started = time.monotonic()
            with pytest.raises(TransportTimeout):
                cluster["A"].receive()
            assert time.monotonic() - started < 2.0

    def test_deadline_clamps_receive(self):
        with AsyncTcpCluster(["A"]) as cluster:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):  # expired: fails before waiting
                cluster["A"].receive(timeout=30.0, deadline=Deadline.after(0.0))
            with pytest.raises(TransportTimeout):  # live: bounds the wait
                cluster["A"].receive(timeout=30.0, deadline=Deadline.after(0.2))
            assert time.monotonic() - started < 2.0


class TestDeadPeer:
    def test_sends_to_a_dead_peer_are_counted_and_the_peer_can_come_back(self):
        """A failed connect must not leave an orphaned queue that swallows
        every later send: the frames are counted as dropped, the peer's
        state is forgotten, and a send after the peer is re-listed arrives."""
        with AsyncTcpCluster(["A", "B"]) as cluster:
            node = cluster["A"]
            cluster["B"].close()
            for i in range(3):  # none of these raises on the caller
                node.send(Message(src="A", dst="B", kind="k", payload=i))
            assert wait_until(lambda: node.stats.dropped == 3)
            assert node.stats.messages == 3
            assert node._queues == {} and node._writer_tasks == {}
            assert dict(node.stats.connections_open) == {}

            with AsyncTcpNode("B", loop_thread=cluster.loop_thread) as reborn:
                node.learn_peers({"B": reborn.address})
                node.send(Message(src="A", dst="B", kind="k", payload="back"))
                assert reborn.receive(timeout=5.0).payload == "back"
                assert dict(node.stats.connections_open) == {"B": 1}
            assert node.stats.dropped == 3

"""The socket transport: the message interface, the wire, bounds, dead peers.

One suite for :mod:`repro.net.tcp`.  The interface cases are those every
transport shares (pull-style receive, handler dispatch, per-link order,
unknown peers, closed transports); the rest pin what is particular to
sockets on one ``selectors`` loop — the frame on the wire, the bounded
waits, what happens when a peer stalls, breaks, dies or comes back, and
that a handler's send never blocks the thread that dispatches handlers.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
import zlib
from contextlib import closing, contextmanager

import pytest

from repro.errors import (
    DeadlineExceededError,
    NodeUnreachableError,
    TransportClosedError,
    TransportTimeout,
)
from repro.net import tcp
from repro.net.codec import encode_frame
from repro.net.message import Message
from repro.net.tcp import TcpCluster, TcpNode
from repro.obs import Tracer
from repro.resilience import Deadline


def wait_until(condition, seconds: float = 10.0) -> bool:
    limit = time.monotonic() + seconds
    while not condition() and time.monotonic() < limit:
        time.sleep(0.01)
    return condition()


def collect(node: TcpNode, count: int) -> tuple[list, threading.Event]:
    """Install a handler on ``node`` that keeps payloads until ``count`` arrived."""
    seen: list = []
    done = threading.Event()

    def handler(msg, _node):
        seen.append(msg.payload)
        if len(seen) == count:
            done.set()

    node.set_handler(handler)
    return seen, done


def spy_on_abandon(node: TcpNode, monkeypatch) -> list[Exception]:
    """The exceptions ``node`` gives up on a peer for, in order."""
    errors: list[Exception] = []
    real = node._abandon

    def abandon(dst, peer, exc, abort=False):
        errors.append(exc)
        real(dst, peer, exc, abort)

    monkeypatch.setattr(node, "_abandon", abandon)
    return errors


@contextmanager
def stalled_listener():
    """An address whose connects hang: its one-slot accept queue is full,
    so the kernel drops every further SYN."""
    with socket.create_server(("127.0.0.1", 0), backlog=0) as listener:
        with socket.create_connection(listener.getsockname(), timeout=5.0):
            yield listener.getsockname()


@contextmanager
def never_reading_listener():
    """A raw listener with a small receive buffer; accept from it and
    never ``recv``, and a few megabytes fill both kernel buffers."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(5.0)
    with listener:
        yield listener


class TestTcpNode:
    def test_send_receive_pull_style(self):
        with TcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload={"v": 1}))
            msg = cluster["B"].receive(timeout=5.0)
            assert msg.payload == {"v": 1} and msg.src == "A"

    def test_handler_dispatch(self):
        with TcpCluster(["A", "B"]) as cluster:
            seen, done = collect(cluster["B"], 1)
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=2**200))
            assert done.wait(5.0)
            assert seen == [2**200]

    def test_bidirectional(self):
        with TcpCluster(["A", "B"]) as cluster:

            def ponger(msg, node):
                node.send(
                    Message(src=msg.dst, dst=msg.src, kind="pong", payload=msg.payload + 1)
                )

            cluster["B"].set_handler(ponger)
            answers, done = collect(cluster["A"], 1)
            cluster["A"].send(Message(src="A", dst="B", kind="ping", payload=41))
            assert done.wait(5.0)
            assert answers == [42]

    def test_many_messages_ordered_per_link(self):
        with TcpCluster(["A", "B"]) as cluster:
            seen, done = collect(cluster["B"], 50)
            for i in range(50):
                cluster["A"].send(Message(src="A", dst="B", kind="k", payload=i))
            assert done.wait(10.0)
            assert seen == list(range(50))  # one connection, written in send order

    def test_unknown_peer(self):
        with TcpCluster(["A"]) as cluster:
            with pytest.raises(NodeUnreachableError):
                cluster["A"].send(Message(src="A", dst="nowhere", kind="k"))

    def test_closed_transport_rejects_send(self):
        node = TcpNode("solo")
        node.learn_peers({"solo": node.address})
        node.close()
        with pytest.raises(TransportClosedError):
            node.send(Message(src="solo", dst="solo", kind="k"))

    def test_receive_timeout(self):
        with TcpCluster(["A"]) as cluster:
            with pytest.raises(TransportTimeout):
                cluster["A"].receive(timeout=0.2)

    def test_stats_counted(self):
        with TcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="data", payload="x"))
            cluster["B"].receive(timeout=5.0)
            assert cluster["A"].stats.messages == 1
            assert cluster["A"].stats.by_kind["data"] == 1

    def test_three_node_relay(self):
        """A -> B -> C relay chain over real sockets."""
        with TcpCluster(["A", "B", "C"]) as cluster:

            def relay(msg, node):
                node.send(Message(src="B", dst="C", kind="k", payload=msg.payload * 2))

            cluster["B"].set_handler(relay)
            result, done = collect(cluster["C"], 1)
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=21))
            assert done.wait(5.0)
            assert result == [42]

    def test_wire_is_the_codec_frame_in_both_directions(self):
        """What crosses the socket is exactly ``encode_frame``: a raw socket
        can feed a node, and a raw listener reads what a node writes."""
        with closing(TcpNode("A")) as node, socket.create_server(("127.0.0.1", 0)) as raw:
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
        with closing(TcpNode("A")) as node:
            with socket.create_connection(node.address) as feeder:
                feeder.sendall(bad + encode_frame(good))
                assert node.receive(timeout=5.0).payload == good.payload
            assert node.corrupt_frames == 1

    def test_oversized_length_costs_its_connection_only(self):
        """A length past the frame limit leaves no frame boundary to resume
        at: that connection is closed, and the node serves the next one."""
        with closing(TcpNode("A")) as node:
            with socket.create_connection(node.address) as bomb:
                bomb.sendall((2**31).to_bytes(4, "big") + bytes(8))
                bomb.settimeout(5.0)
                assert bomb.recv(1) == b""  # closed by the node
            with socket.create_connection(node.address) as feeder:
                feeder.sendall(encode_frame(Message(src="raw", dst="A", kind="k", payload=1)))
                assert node.receive(timeout=5.0).payload == 1

    def test_retransmitted_message_id_is_dispatched_once(self):
        with TcpCluster(["A", "B"]) as cluster:
            for payload in ("first", "again", "next"):
                mid = "m-2" if payload == "next" else "m-1"
                cluster["A"].send(
                    Message(src="A", dst="B", kind="k", payload=payload, msg_id=mid)
                )
            assert cluster["B"].receive(timeout=5.0).payload == "first"
            assert cluster["B"].receive(timeout=5.0).payload == "next"
            assert cluster["B"].duplicates_dropped == 1

    def test_handler_runs_in_a_node_span_under_the_sender(self):
        tracer = Tracer()
        with TcpCluster(["A", "B"], tracer=tracer) as cluster:
            _seen, done = collect(cluster["B"], 1)
            with tracer.span("root") as root:
                cluster["A"].send(Message(src="A", dst="B", kind="ping", payload=1))
            assert done.wait(5.0)
            assert wait_until(
                lambda: any(s.name == "node.ping" for s in tracer.finished_spans())
            )
        (span,) = [s for s in tracer.finished_spans() if s.name == "node.ping"]
        assert span.node == "B" and span.attributes["src"] == "A"
        assert (span.trace_id, span.parent_id) == (root.trace_id, root.span_id)
        assert [e.name for e in span.events] == ["net.recv"]


class TestNoDelay:
    def test_outbound_socket_has_nodelay(self):
        with TcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["B"].receive(timeout=5.0)
            sock = cluster["A"]._peers["B"].sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_ping_pong_latency(self):
        """100 tiny round-trips must not hit Nagle/delayed-ACK stalls.

        With Nagle on, each sub-MSS write waits ~40ms for the delayed ACK,
        so 100 round-trips would take >4s; with TCP_NODELAY they take
        milliseconds.  The 2s budget is ~20x slack over a loaded CI box
        while still catching a Nagle regression by an order of magnitude.
        """
        with TcpCluster(["A", "B"]) as cluster:
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
    """Many sends in a row: each is one frame, in send order per peer."""

    def test_fan_out_to_multiple_peers(self):
        with TcpCluster(["A", "B", "C"]) as cluster:
            for dst, payload in [("B", "to-b"), ("C", "to-c"), ("B", "to-b-2")]:
                cluster["A"].send(Message(src="A", dst=dst, kind="k", payload=payload))
            assert cluster["B"].receive(timeout=5.0).payload == "to-b"
            assert cluster["B"].receive(timeout=5.0).payload == "to-b-2"
            assert cluster["C"].receive(timeout=5.0).payload == "to-c"
            assert cluster["A"].stats.messages == 3

    def test_order_preserved_within_batch(self):
        with TcpCluster(["A", "B"]) as cluster:
            seen, done = collect(cluster["B"], 20)
            for i in range(20):
                cluster["A"].send(Message(src="A", dst="B", kind="k", payload=i))
            assert done.wait(10.0)
            assert seen == list(range(20))

    def test_unknown_peer_rejected_before_any_write(self):
        with TcpCluster(["A", "B"]) as cluster:
            with pytest.raises(NodeUnreachableError):
                cluster["A"].send(Message(src="A", dst="ghost", kind="k", payload=2))
            assert cluster["A"].stats.messages == 0
            assert cluster["A"]._peers == {}

    def test_closed_transport_rejects(self):
        node = TcpNode("solo")
        node.close()
        with pytest.raises(TransportClosedError):
            node.send(Message(src="solo", dst="solo", kind="k"))


class TestConnectionPoolHealth:
    def test_first_send_opens_one_pooled_connection(self):
        with TcpCluster(["A", "B"]) as cluster:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=2))
            cluster["B"].receive(timeout=5.0)
            cluster["B"].receive(timeout=5.0)
            # Two sends, one pooled connection — and no reconnect recorded.
            assert dict(cluster["A"].stats.connections_open) == {"B": 1}
            assert dict(cluster["A"].stats.reconnects) == {}

    def test_broken_socket_counts_a_reconnect(self):
        with TcpCluster(["A", "B"]) as cluster:
            node = cluster["A"]
            node.send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["B"].receive(timeout=5.0)
            # Break the pooled connection on the loop, so the break lands
            # before the next frame: that write fails and takes the
            # single-retry reconnect path.
            cluster.call_soon(lambda: node._peers["B"].sock.shutdown(socket.SHUT_WR))
            node.send(Message(src="A", dst="B", kind="k", payload=2))
            assert cluster["B"].receive(timeout=5.0).payload == 2
            assert dict(node.stats.connections_open) == {"B": 1}
            assert dict(node.stats.reconnects) == {"B": 1}
            assert node.stats.dropped == 0

    def test_a_peer_closing_an_idle_connection_loses_no_frame(self):
        """The peer's close of an idle pooled connection is seen on the
        loop, so the next send dials afresh instead of writing into the
        closed connection, where its frame would be lost uncounted."""
        with TcpCluster(["A", "B"]) as cluster:
            node, peer = cluster["A"], cluster["B"]
            node.send(Message(src="A", dst="B", kind="k", payload=1))
            assert peer.receive(timeout=5.0).payload == 1
            cluster.call_soon(
                lambda: [peer._close_inbound(conn) for conn in list(peer._inbound)]
            )
            time.sleep(0.3)
            node.send(Message(src="A", dst="B", kind="k", payload=2))
            assert peer.receive(timeout=5.0).payload == 2
            assert dict(node.stats.reconnects) == {"B": 1}
            assert node.stats.dropped == 0

    def test_close_drains_the_gauge(self):
        cluster = TcpCluster(["A", "B"])
        try:
            cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            cluster["B"].receive(timeout=5.0)
            stats = cluster["A"].stats
        finally:
            cluster.close()
        assert dict(stats.connections_open) == {}


class TestBounds:
    """The time bounds: connect, write progress, receive."""

    def test_stalled_connect_ends_in_transport_timeout(self, monkeypatch):
        monkeypatch.setattr(tcp, "CONNECT_TIMEOUT", 0.3)
        with stalled_listener() as address, closing(TcpNode("A")) as node:
            errors = spy_on_abandon(node, monkeypatch)
            node.learn_peers({"B": address})
            started = time.monotonic()
            # Through send() nobody can be raised to: the frame is counted lost.
            node.send(Message(src="A", dst="B", kind="k", payload=1))
            assert wait_until(lambda: node.stats.dropped == 1, 5.0)
            assert time.monotonic() - started < 3.0
            assert node._peers == {} and dict(node.stats.connections_open) == {}
        (error,) = errors
        assert isinstance(error, TransportTimeout)
        assert "connect to 'B'" in str(error)

    def test_peer_that_never_reads_is_abandoned(self, monkeypatch):
        """A peer that accepts and never reads must not hold its frames
        (and grow its buffer) forever: the wait for progress is bounded,
        the frames are counted lost, and the next send dials afresh."""
        monkeypatch.setattr(tcp, "WRITE_TIMEOUT", 0.3)
        with never_reading_listener() as listener, closing(TcpNode("A")) as node:
            errors = spy_on_abandon(node, monkeypatch)
            node.learn_peers({"B": listener.getsockname()})
            blob = "x" * (16 << 20)
            # One frame, one write: no frame can reach the loop after the
            # abandon and dial the connection the "again" accept expects.
            node.send(Message(src="A", dst="B", kind="k", payload=blob))
            accepted, _ = listener.accept()  # ... and never recv()
            with accepted:
                assert wait_until(lambda: node.stats.dropped > 0, 10.0)
                assert node._peers == {}
                assert dict(node.stats.connections_open) == {}
                assert 0 < node.stats.dropped <= 16
                assert "write to 'B'" in str(errors[0])
                # The next send starts over with a new connection.
                node.send(Message(src="A", dst="B", kind="k", payload="again"))
                again, _ = listener.accept()
                with again:
                    again.settimeout(5.0)
                    assert b"again" in again.recv(4096)

    def test_a_handlers_send_never_waits_for_a_stalled_peer(self):
        """The handler of B writes megabytes to a peer that never reads,
        then answers A: the answer arrives at once, because no send blocks
        the one thread that dispatches every handler of the mesh."""
        with never_reading_listener() as listener, TcpCluster(["A", "B"]) as cluster:
            cluster["B"].learn_peers({"sink": listener.getsockname()})
            blob = "x" * (1 << 20)

            def handler(msg, node):
                for _ in range(16):
                    node.send(Message(src="B", dst="sink", kind="k", payload=blob))
                node.send(Message(src="B", dst="A", kind="reply", payload="done"))

            cluster["B"].set_handler(handler)
            started = time.monotonic()
            cluster["A"].send(Message(src="A", dst="B", kind="go"))
            assert cluster["A"].receive(timeout=5.0).payload == "done"
            assert time.monotonic() - started < tcp.WRITE_TIMEOUT / 2
            assert cluster["B"]._peers["sink"].pending  # still waiting for the sink

    def test_receive_without_a_timeout_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tcp, "RECV_TIMEOUT", 0.2)
        with TcpCluster(["A"]) as cluster:
            started = time.monotonic()
            with pytest.raises(TransportTimeout):
                cluster["A"].receive()
            assert time.monotonic() - started < 2.0

    def test_deadline_clamps_receive(self):
        with TcpCluster(["A"]) as cluster:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):  # expired: fails before waiting
                cluster["A"].receive(timeout=30.0, deadline=Deadline.after(0.0))
            with pytest.raises(TransportTimeout):  # live: bounds the wait
                cluster["A"].receive(timeout=30.0, deadline=Deadline.after(0.2))
            assert time.monotonic() - started < 2.0


class TestDeadPeer:
    def test_sends_to_a_dead_peer_are_counted_and_the_peer_can_come_back(self):
        """A failed connect must not leave peer state that swallows every
        later send: the frames are counted as dropped, the peer's state is
        forgotten, and a send after the peer is re-listed arrives."""
        with TcpCluster(["A", "B"]) as cluster:
            node = cluster["A"]
            cluster["B"].close()
            for i in range(3):  # none of these raises on the caller
                node.send(Message(src="A", dst="B", kind="k", payload=i))
            assert wait_until(lambda: node.stats.dropped == 3)
            assert node.stats.messages == 3
            assert node._peers == {}
            assert dict(node.stats.connections_open) == {}

            with closing(TcpNode("B")) as reborn:
                node.learn_peers({"B": reborn.address})
                node.send(Message(src="A", dst="B", kind="k", payload="back"))
                assert reborn.receive(timeout=5.0).payload == "back"
                assert dict(node.stats.connections_open) == {"B": 1}
            assert node.stats.dropped == 3


    def test_a_drop_is_recorded_under_the_span_it_was_sent_from(self):
        tracer = Tracer()
        with TcpCluster(["A", "B"], tracer=tracer) as cluster:
            cluster["B"].close()
            with tracer.span("root") as root:
                cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
            assert wait_until(lambda: cluster["A"].stats.dropped == 1)
        (drop,) = [e for e in root.events if e.name == "net.drop"]
        assert drop.attributes["dst"] == "B" and drop.attributes["frames"] == 1
        assert tracer.orphan_events_total == 0


class TestManySenders:
    def test_concurrent_senders_lose_nothing_and_keep_their_order(self):
        """Four threads (more than the cores) hand sends to one mesh loop
        under a 1 µs switch interval: every message arrives once, each
        sender's in its own order, and the counters add up."""
        senders, each = 4, 200
        with TcpCluster(["A", "B"]) as cluster:
            seen, done = collect(cluster["B"], senders * each)

            def send_all(sender: int) -> None:
                for i in range(each):
                    cluster["A"].send(
                        Message(src="A", dst="B", kind="k", payload=[sender, i])
                    )

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=send_all, args=(n,)) for n in range(senders)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert done.wait(30.0)
            for sender in range(senders):
                assert [i for s, i in seen if s == sender] == list(range(each))
            assert cluster["A"].stats.messages == senders * each


class TestOneLoop:
    def test_a_mesh_runs_one_io_thread_and_close_joins_it(self):
        before = set(threading.enumerate())

        def io_threads():
            return sorted(
                t.name for t in threading.enumerate()
                if t not in before and t.name.startswith("tcp-io-")
            )

        with TcpCluster(["A", "B", "C"]) as cluster:
            for dst in "BC":
                cluster["A"].send(Message(src="A", dst=dst, kind="k", payload=dst))
                assert cluster[dst].receive(timeout=5.0).payload == dst
            assert io_threads() == ["tcp-io-mesh"]
        assert io_threads() == []
        with closing(TcpNode("solo")):
            assert io_threads() == ["tcp-io-mesh"]
        assert io_threads() == []

"""Real-socket transport: the message interface over localhost TCP.

Each :class:`TcpNode` listens on an ephemeral localhost port and hands
decoded :class:`~repro.net.message.Message` objects to the same
``handler(msg, transport)`` the simulator calls, so every protocol written
for :class:`~repro.net.simnet.SimNetwork` runs unmodified over sockets.
Frames are the CRC-framed codec of :mod:`repro.net.codec`.

A :class:`TcpCluster` is one mesh: one :mod:`selectors` loop on one
thread (``tcp-io-mesh``) accepts, reads, decodes, drops duplicate
``msg_id``\\ s, runs the handlers and writes for all of its nodes; a node
built alone gets a mesh of its own.  A send from another thread is handed
to the loop and wakes it through a socketpair; a handler's send writes at
once.  No send blocks.  Each peer gets one pooled connection, written in
send order, one frame per send, reopened once when it breaks and dropped
when the peer closes it while idle.  A peer whose
connect takes longer than :data:`CONNECT_TIMEOUT`, that takes none of its
pending bytes for :data:`WRITE_TIMEOUT`, or that cannot be reached twice
in a row is abandoned: its pending frames count in ``stats.dropped`` and
the next send dials afresh.  :meth:`TcpNode.receive`
waits :data:`RECV_TIMEOUT` unless told otherwise, clamped by a propagated
:class:`~repro.resilience.Deadline`.  A frame whose body does not decode
costs that one message (``corrupt_frames``).
"""

from __future__ import annotations

import errno
import logging
import os
import queue
import selectors
import socket
import struct
import threading
import time
from collections import deque
from contextvars import Context, copy_context
from functools import partial
from typing import Callable

from repro.errors import NodeUnreachableError, TransportClosedError, TransportTimeout
from repro.net.codec import FRAME_HEADER_BYTES, decode_frames, encode_frame
from repro.net.message import Message, NodeId
from repro.net.stats import NetworkStats
from repro.obs.tracer import NOOP_TRACER
from repro.resilience.delivery import DedupWindow
from repro.resilience.policy import Deadline

__all__ = ["TcpNode", "TcpCluster"]

Handler = Callable[[Message, "TcpNode"], None]

#: Seconds a connect, a write that makes no progress, and a
#: :meth:`TcpNode.receive` given no timeout may take before
#: :class:`TransportTimeout`.
CONNECT_TIMEOUT = 10.0
WRITE_TIMEOUT = 10.0
RECV_TIMEOUT = 10.0

_log = logging.getLogger("repro.net")


class _Peer:
    """One outbound connection; touched only on the mesh's thread."""

    __slots__ = ("sock", "connected", "pending", "sent", "deadline", "retried")

    def __init__(self) -> None:
        self.sock: socket.socket | None = None
        self.connected = False
        # (frame, the sender's context when traced) per send
        self.pending: deque[tuple[bytes, Context | None]] = deque()
        self.sent = 0  # bytes of pending[0] already written
        # Set while the socket waits to connect or to take pending bytes,
        # and exactly then registered for writability (else for readability).
        self.deadline: float | None = None
        self.retried = False


class TcpNode:
    """One networked participant; ``send`` / ``receive`` work from any thread."""

    def __init__(
        self, node_id: NodeId, handler: Handler | None = None, mesh=None, tracer=None
    ) -> None:
        self.node_id = node_id
        self.stats = NetworkStats()
        self.tracer = tracer or NOOP_TRACER
        self.corrupt_frames = 0
        self.duplicates_dropped = 0
        self._dedup = DedupWindow()
        self._handler = handler
        self._address_book: dict[NodeId, tuple[str, int]] = {}
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._peers: dict[NodeId, _Peer] = {}
        self._ever_connected: set[NodeId] = set()
        self._inbound: dict[socket.socket, bytearray] = {}
        self._own_mesh = mesh is None
        self._mesh = mesh or TcpCluster([])
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._mesh.call_soon(
            self._mesh.selector.register,
            self._listener, selectors.EVENT_READ, self._on_accept,
        )
        self._mesh.members.append(self)

    def set_handler(self, handler: Handler) -> None:
        self._handler = handler

    def learn_peers(self, address_book: dict[NodeId, tuple[str, int]]) -> None:
        """Install the cluster address book (node id -> (host, port))."""
        self._address_book.update(address_book)

    # -- sending ----------------------------------------------------------

    def _frame(self, msg: Message) -> bytes:
        if msg.dst not in self._address_book:
            raise NodeUnreachableError(f"unknown peer {msg.dst!r}")
        if msg.trace_id is None and self.tracer.enabled:
            msg.trace_id, msg.parent_span_id = self.tracer.current_context()
        frame = encode_frame(msg)
        msg.size_bytes = len(frame) - FRAME_HEADER_BYTES
        return frame

    def send(self, msg: Message) -> None:
        """Send one framed message."""
        if self._closed:
            raise TransportClosedError(f"{self.node_id} is closed")
        # A traced send's context travels with its frame, so a drop on the
        # loop thread is recorded under the span the send was made from.
        item = (self._frame(msg), copy_context() if self.tracer.enabled else None)
        if self._mesh.on_loop():
            self._enqueue(msg.dst, item)
        else:
            self._mesh.call_soon(self._enqueue, msg.dst, item)
        self.stats.record(msg.kind, msg.size_bytes, msg.src, msg.dst)
        if self.tracer.enabled:
            self.tracer.add_event(
                "net.send",
                {"src": msg.src, "dst": msg.dst, "kind": msg.kind,
                 "bytes": msg.size_bytes},
            )

    def _enqueue(self, dst: NodeId, item: tuple) -> None:
        if self._closed:
            return
        peer = self._peers.get(dst)
        if peer is None:
            peer = self._peers[dst] = _Peer()
            peer.pending.append(item)
            self._dial(dst, peer)
            return
        peer.pending.append(item)
        if peer.connected and peer.deadline is None:
            self._flush(dst, peer)

    def _watch(self, dst: NodeId, peer: _Peer, seconds: float | None) -> None:
        """Wait up to ``seconds`` for ``peer``'s socket to be writable
        (``None``: stop waiting, and watch for the peer's close instead)."""
        if (seconds is None) != (peer.deadline is None):
            events, on_ready = (
                (selectors.EVENT_READ, self._on_hangup)
                if seconds is None
                else (selectors.EVENT_WRITE, self._on_writable)
            )
            self._mesh.selector.modify(peer.sock, events, partial(on_ready, dst))
        peer.deadline = None if seconds is None else time.monotonic() + seconds

    def _dial(self, dst: NodeId, peer: _Peer) -> None:
        """Start a non-blocking connect; writability says how it ended."""
        peer.sock = socket.socket()
        peer.sock.setblocking(False)
        peer.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._mesh.selector.register(
            peer.sock, selectors.EVENT_WRITE, partial(self._on_writable, dst)
        )
        peer.deadline = time.monotonic() + CONNECT_TIMEOUT
        error = peer.sock.connect_ex(self._address_book[dst])
        if error not in (0, errno.EINPROGRESS):
            self._fail(dst, peer, OSError(error, os.strerror(error)))

    def _on_writable(self, dst: NodeId, sock: socket.socket) -> None:
        peer = self._peers.get(dst)
        if peer is None or peer.sock is not sock:
            return  # given up on earlier in the same select batch
        if not peer.connected:
            error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if error:
                self._fail(dst, peer, OSError(error, os.strerror(error)))
                return
            peer.connected = True
            self.stats.record_connect(dst, reconnect=dst in self._ever_connected)
            self._ever_connected.add(dst)
            self._watch(dst, peer, WRITE_TIMEOUT)
        self._flush(dst, peer)

    def _on_hangup(self, dst: NodeId, sock: socket.socket) -> None:
        """The peer closed an idle connection: forget it; the next send dials."""
        peer = self._peers.get(dst)
        if peer is not None and peer.sock is sock:
            self._disconnect(dst, peer)
            del self._peers[dst]

    def _flush(self, dst: NodeId, peer: _Peer) -> None:
        """Write pending bytes until none are left or the kernel takes no more."""
        written = 0
        try:
            while peer.pending:
                payload = peer.pending[0][0]
                sent = peer.sock.send(memoryview(payload)[peer.sent:])
                written += sent
                peer.sent += sent
                if peer.sent < len(payload):
                    break
                peer.pending.popleft()
                peer.sent, peer.retried = 0, False
        except BlockingIOError:
            pass
        except OSError as exc:
            self._fail(dst, peer, exc)
            return
        if not peer.pending:
            self._watch(dst, peer, None)
        elif written or peer.deadline is None:
            self._watch(dst, peer, WRITE_TIMEOUT)

    def _fail(self, dst: NodeId, peer: _Peer, exc: OSError) -> None:
        """A connect or write failed: reconnect once, then give up."""
        self._disconnect(dst, peer)
        if peer.retried:
            self._abandon(dst, peer, exc)
            return
        peer.retried, peer.sent = True, 0  # the interrupted payload goes whole
        self._dial(dst, peer)

    def _disconnect(self, dst: NodeId, peer: _Peer, abort: bool = False) -> None:
        if peer.sock is None:
            return
        self._mesh.selector.unregister(peer.sock)
        if abort:
            # Bytes buffered for a peer that stopped reading never flush:
            # reset the connection rather than linger on it.
            peer.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        peer.sock.close()
        peer.sock = None
        if peer.connected:
            peer.connected = False
            self.stats.record_disconnect(dst)

    def _abandon(self, dst: NodeId, peer: _Peer, exc: Exception, abort=False) -> None:
        """Count ``dst``'s pending frames as dropped and forget the peer, so
        the next send dials afresh (maybe at a new address by then)."""
        self._disconnect(dst, peer, abort)
        del self._peers[dst]
        frames = len(peer.pending)
        for _ in range(frames):
            self.stats.record_drop()
        if self.tracer.enabled:
            peer.pending[-1][1].run(
                self.tracer.add_event,
                "net.drop",
                {"src": self.node_id, "dst": dst, "frames": frames,
                 "error": f"{type(exc).__name__}: {exc}"},
            )

    def _expire(self, now: float) -> float:
        """Abandon every peer whose connect or write is overdue; returns the
        earliest deadline left (infinity when none is)."""
        for dst, peer in list(self._peers.items()):
            if peer.deadline is not None and peer.deadline <= now:
                what = "write to" if peer.connected else "connect to"
                error = TransportTimeout(f"{self.node_id}: {what} {dst!r} timed out")
                self._abandon(dst, peer, error, abort=peer.connected)
        return min(
            (p.deadline for p in self._peers.values() if p.deadline is not None),
            default=float("inf"),
        )

    # -- receiving --------------------------------------------------------

    def _on_accept(self, listener: socket.socket) -> None:
        try:
            conn = listener.accept()[0]
        except BlockingIOError:
            return
        conn.setblocking(False)
        self._inbound[conn] = bytearray()
        self._mesh.selector.register(conn, selectors.EVENT_READ, self._on_readable)

    def _on_readable(self, conn: socket.socket) -> None:
        try:
            chunk = conn.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._close_inbound(conn)
            return
        buffer = self._inbound[conn]
        buffer.extend(chunk)
        try:
            for msg in decode_frames(buffer, on_corrupt=self._on_corrupt):
                self._dispatch(msg)
        except Exception:
            # A length past the frame limit leaves no boundary to resume at,
            # and a failing handler costs the connection it read from, as a
            # failing stream reader would; the node serves the others.
            _log.exception("%s: closing an inbound connection", self.node_id)
            self._close_inbound(conn)

    def _close_inbound(self, conn: socket.socket) -> None:
        if self._inbound.pop(conn, None) is not None:
            self._mesh.selector.unregister(conn)
            conn.close()

    def _on_corrupt(self, error) -> None:
        self.corrupt_frames += 1
        if self.tracer.enabled:
            self.tracer.add_event(
                "net.corrupt_drop", {"node": self.node_id, "error": str(error)}
            )

    def _dispatch(self, msg: Message) -> None:
        if msg.msg_id is not None and self._dedup.seen((msg.src, msg.dst), msg.msg_id):
            self.duplicates_dropped += 1
            if self.tracer.enabled:
                self.tracer.add_event(
                    "resilience.duplicate_dropped",
                    {"node": self.node_id, "mid": msg.msg_id},
                )
            return
        if not self.tracer.enabled:
            self._deliver(msg)
            return
        # The handler runs inside a span of this node, opened under the
        # span the message was sent from.
        with self.tracer.span(
            f"node.{msg.kind}",
            {"node": self.node_id, "kind": msg.kind, "src": msg.src,
             "messages": 1, "bytes": msg.size_bytes},
            parent=(msg.trace_id, msg.parent_span_id),
        ):
            self.tracer.add_event(
                "net.recv", {"src": msg.src, "dst": msg.dst, "kind": msg.kind}
            )
            self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        if self._handler is not None:
            self._handler(msg, self)
        else:
            self._inbox.put(msg)

    def receive(
        self, timeout: float | None = None, deadline: Deadline | None = None
    ) -> Message:
        """The next message of a node without a handler: waits ``timeout``
        (default :data:`RECV_TIMEOUT`), clamped by ``deadline``, then raises
        the typed, retryable :class:`TransportTimeout`."""
        budget = RECV_TIMEOUT if timeout is None else timeout
        if deadline is not None:
            deadline.check(f"tcp.receive[{self.node_id}]")
            budget = deadline.clamp(budget)
        try:
            return self._inbox.get(timeout=budget)
        except queue.Empty:
            raise TransportTimeout(
                f"{self.node_id}: no message within {budget}s"
            ) from None

    # -- lifecycle ---------------------------------------------------------

    def _shutdown(self) -> None:
        self._mesh.selector.unregister(self._listener)
        self._listener.close()
        for dst, peer in self._peers.items():
            self._disconnect(dst, peer)
        self._peers.clear()
        for conn in list(self._inbound):
            self._close_inbound(conn)
        self._mesh.members.remove(self)

    def close(self) -> None:
        """Close this node's sockets on its mesh; pending frames are not sent.

        A node with a mesh of its own also ends the mesh's thread.
        """
        if self._closed:
            return
        self._closed = True
        self._mesh.call_soon(self._shutdown)
        if self._own_mesh:
            self._mesh.close()


class TcpCluster:
    """``node_ids`` on ephemeral localhost ports, meshed, on one loop thread.

    The mesh owns the :mod:`selectors` loop: a registered socket's data is
    the callback its readiness calls, with the socket as argument.  After
    each ``select`` the loop runs the calls other threads handed it, then
    lets each member node abandon its overdue peers.
    """

    def __init__(self, node_ids: list[NodeId], tracer=None) -> None:
        self.selector = selectors.DefaultSelector()
        self.members: list[TcpNode] = []
        self._calls: deque = deque()
        self._waker, self._wake = socket.socketpair()
        self._waker.setblocking(False)
        self._wake.setblocking(False)
        self.selector.register(
            self._waker, selectors.EVENT_READ, lambda sock: sock.recv(4096)
        )
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name="tcp-io-mesh", daemon=True
        )
        self._thread.start()
        self.nodes: dict[NodeId, TcpNode] = {
            node_id: TcpNode(node_id, mesh=self, tracer=tracer)
            for node_id in node_ids
        }
        book = {node_id: node.address for node_id, node in self.nodes.items()}
        for node in self.nodes.values():
            node.learn_peers(book)

    def on_loop(self) -> bool:
        return threading.current_thread() is self._thread

    def call_soon(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the loop thread, after the calls queued before."""
        self._calls.append((fn, args))
        if not self.on_loop():
            try:
                self._wake.send(b"\0")
            except OSError:  # buffer full: a wake-up is pending; closed: loop over
                pass

    def _run(self) -> None:
        deadline = float("inf")
        while self._running:
            timeout = None if deadline == float("inf") else deadline - time.monotonic()
            for key, _events in self.selector.select(0.0 if self._calls else timeout):
                key.data(key.fileobj)
            while self._calls:
                fn, args = self._calls.popleft()
                fn(*args)
            now = time.monotonic()
            deadline = min((node._expire(now) for node in self.members), default=float("inf"))
        for key in list(self.selector.get_map().values()):
            key.fileobj.close()
        self.selector.close()
        self._wake.close()

    def _stop(self) -> None:
        self._running = False

    def __getitem__(self, node_id: NodeId) -> TcpNode:
        return self.nodes[node_id]

    def close(self) -> None:
        """Close every node, end the loop and join its thread."""
        for node in self.nodes.values():
            node.close()
        if self._thread.is_alive():
            self.call_soon(self._stop)
            if not self.on_loop():
                self._thread.join(timeout=10.0)

    def __enter__(self) -> "TcpCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

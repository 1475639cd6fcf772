"""Real-socket transport: the message interface over localhost TCP.

The paper's repro path is "simple sockets"; this module provides it.  Each
:class:`AsyncTcpNode` binds a listening socket and hands decoded
:class:`~repro.net.message.Message` objects to the same
``handler(msg, transport)`` signature the simulator uses — so any protocol
written for :class:`~repro.net.simnet.SimNetwork` runs unmodified over TCP
(the integration tests do exactly that).  Frames are the CRC-framed codec
of :mod:`repro.net.codec`.  Everything runs on one event loop:

* **one pooled connection per peer** — the first send to a peer opens an
  asyncio stream and a dedicated *writer task*; subsequent sends (from
  the event loop or from any thread) enqueue frames onto that task's
  queue, preserving per-peer order;
* **writer-drain backpressure** — the writer task awaits
  ``StreamWriter.drain()`` after every write, so a slow peer suspends
  the one coroutine feeding it instead of growing an unbounded kernel
  buffer — for at most :data:`WRITE_TIMEOUT`, after which the peer is
  treated as unreachable;
* **reconnects** — a broken pipe closes the pooled stream and reopens
  it once, feeding the per-peer ``repro_net_connections_open`` /
  ``repro_net_reconnects_total`` pool-health ledger; a peer that cannot
  be reached (refused, no answer within :data:`CONNECT_TIMEOUT`, or
  accepting and never reading) loses its queued frames, counted in
  ``stats.dropped``, and the next send to it starts over with a fresh
  connection.

Resilience hooks (see ``docs/resilience.md``): a blocking
:meth:`AsyncTcpNode.receive` is bounded (:data:`RECV_TIMEOUT` by
default), can be clamped by a propagated
:class:`~repro.resilience.Deadline`, and raises the typed
:class:`~repro.errors.TransportTimeout`; a corrupted frame is counted and
dropped instead of killing the connection; messages stamped with a
``msg_id`` (retransmissions from a reliability layer) are deduplicated
per incoming link before dispatch.

Handlers run on the owning event loop.  An :class:`AsyncTcpCluster`
convenience spins up N nodes on ephemeral ports, sharing one loop and one
address book.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable

from repro.aio.loop import LoopThread
from repro.errors import NodeUnreachableError, TransportClosedError, TransportTimeout
from repro.net.codec import FRAME_HEADER_BYTES, decode_frames, encode_frame
from repro.net.message import Message, NodeId
from repro.net.stats import NetworkStats
from repro.obs.tracer import NOOP_TRACER
from repro.resilience.delivery import DedupWindow
from repro.resilience.policy import Deadline

__all__ = ["AsyncTcpNode", "AsyncTcpCluster"]

Handler = Callable[[Message, "AsyncTcpNode"], None]

_READ_CHUNK = 65536

#: Seconds a connect, a write's drain, and a :meth:`AsyncTcpNode.receive`
#: given no timeout, may take before raising :class:`TransportTimeout`.
CONNECT_TIMEOUT = 10.0
WRITE_TIMEOUT = 10.0
RECV_TIMEOUT = 10.0


class AsyncTcpNode:
    """One networked participant on asyncio streams.

    Owns (or shares) a :class:`~repro.aio.loop.LoopThread`; the listener,
    reader tasks, and per-peer writer tasks all live on that loop, while
    ``send`` / ``receive`` stay callable from any thread (sync facade).
    """

    def __init__(
        self,
        node_id: NodeId,
        handler: Handler | None = None,
        loop_thread: LoopThread | None = None,
        tracer=None,
    ) -> None:
        self.node_id = node_id
        self.stats = NetworkStats()
        self.tracer = tracer or NOOP_TRACER
        self.corrupt_frames = 0
        self.duplicates_dropped = 0
        self._dedup = DedupWindow()
        self._handler = handler
        self._address_book: dict[NodeId, tuple[str, int]] = {}
        self._owns_loop = loop_thread is None
        self._loop_thread = loop_thread or LoopThread(name=f"aio-tcp-{node_id}")
        self._closed = threading.Event()
        # Per-peer outbound state, touched only on the loop: frame queue,
        # writer task, open stream, and the ever-connected reconnect flag.
        self._queues: dict[NodeId, asyncio.Queue] = {}
        self._writer_tasks: dict[NodeId, asyncio.Task] = {}
        self._writers: dict[NodeId, asyncio.StreamWriter] = {}
        self._ever_connected: set[NodeId] = set()
        # Inbound connections being served, so close() can end them.
        self._inbound: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._inbox: asyncio.Queue = self._loop_thread.run(self._make_inbox())
        self._server: asyncio.base_events.Server = self._loop_thread.run(
            self._start_server()
        )

    @staticmethod
    async def _make_inbox() -> asyncio.Queue:
        return asyncio.Queue()

    async def _start_server(self):
        return await asyncio.start_server(self._serve_connection, "127.0.0.1", 0)

    # -- wiring -----------------------------------------------------------

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop_thread.loop

    @property
    def address(self) -> tuple[str, int]:
        return self._server.sockets[0].getsockname()

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

    def _record_send(self, msg: Message) -> None:
        self.stats.record(msg.kind, msg.size_bytes, msg.src, msg.dst)
        if self.tracer.enabled:
            self.tracer.add_event(
                "net.send",
                {
                    "src": msg.src,
                    "dst": msg.dst,
                    "kind": msg.kind,
                    "bytes": msg.size_bytes,
                },
            )

    def _enqueue(self, dst: NodeId, payload: bytes, frames: int) -> None:
        """Queue ``payload`` (``frames`` messages) for ``dst``'s writer task,
        from the loop or from any thread."""

        def enqueue() -> None:
            queue = self._queues.get(dst)
            if queue is None:
                queue = self._queues[dst] = asyncio.Queue()
                self._writer_tasks[dst] = self.loop.create_task(
                    self._writer_loop(dst)
                )
            queue.put_nowait((payload, frames))

        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self.loop:
            enqueue()
        else:
            self.loop.call_soon_threadsafe(enqueue)

    def send(self, msg: Message) -> None:
        """Send one framed message; callable from the loop or any thread."""
        if self._closed.is_set():
            raise TransportClosedError(f"{self.node_id} is closed")
        self._enqueue(msg.dst, self._frame(msg), 1)
        self._record_send(msg)

    def send_many(self, msgs: list[Message]) -> None:
        """Ship several messages, one queue item (one write) per peer."""
        if self._closed.is_set():
            raise TransportClosedError(f"{self.node_id} is closed")
        batches: dict[NodeId, list[bytes]] = {}
        for msg in msgs:
            batches.setdefault(msg.dst, []).append(self._frame(msg))
        for dst, frames in batches.items():
            self._enqueue(dst, b"".join(frames), len(frames))
        for msg in msgs:
            self._record_send(msg)

    async def _connect(self, dst: NodeId) -> asyncio.StreamWriter:
        try:
            _reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*self._address_book[dst]), CONNECT_TIMEOUT
            )
        except asyncio.TimeoutError as exc:
            raise TransportTimeout(
                f"{self.node_id}: connect to {dst!r} exceeded {CONNECT_TIMEOUT}s"
            ) from exc
        self._writers[dst] = writer
        self.stats.record_connect(dst, reconnect=dst in self._ever_connected)
        self._ever_connected.add(dst)
        return writer

    async def _write(self, dst: NodeId, payload: bytes) -> None:
        writer = self._writers.get(dst) or await self._connect(dst)
        writer.write(payload)
        try:
            await asyncio.wait_for(writer.drain(), WRITE_TIMEOUT)
        except asyncio.TimeoutError as exc:
            # The peer accepted and stopped reading: what is buffered for it
            # will never flush, so the stream is aborted, not closed.
            writer.transport.abort()
            raise TransportTimeout(
                f"{self.node_id}: write to {dst!r} not drained within {WRITE_TIMEOUT}s"
            ) from exc

    def _drop_connection(self, dst: NodeId) -> None:
        writer = self._writers.pop(dst, None)
        if writer is not None:
            writer.close()
            self.stats.record_disconnect(dst)

    async def _writer_loop(self, dst: NodeId) -> None:
        """Drain ``dst``'s frame queue through one pooled connection."""
        queue = self._queues[dst]
        while not self._closed.is_set():
            payload, frames = await queue.get()
            try:
                try:
                    await self._write(dst, payload)
                except OSError:
                    # One reconnect attempt: the peer may have restarted.
                    self._drop_connection(dst)
                    if self._closed.is_set():
                        return
                    await self._write(dst, payload)
            except (OSError, TransportTimeout) as exc:
                self._abandon_peer(dst, frames, exc)
                return

    def _abandon_peer(self, dst: NodeId, frames: int, exc: Exception) -> None:
        """``dst`` cannot be reached: forget its queue, task and stream.

        Nobody awaits a writer task, so the failure is settled here: the
        frames in hand and in the queue are counted as dropped, and the
        next send finds no queue and starts a fresh writer (the peer may
        be back, possibly re-listed at a new address).
        """
        self._drop_connection(dst)
        queue = self._queues.pop(dst)
        del self._writer_tasks[dst]
        while not queue.empty():
            frames += queue.get_nowait()[1]
        for _ in range(frames):
            self.stats.record_drop()
        if self.tracer.enabled:
            self.tracer.add_event(
                "net.drop",
                {
                    "src": self.node_id,
                    "dst": dst,
                    "frames": frames,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )

    # -- receiving --------------------------------------------------------

    def _on_corrupt(self, error) -> None:
        self.corrupt_frames += 1
        if self.tracer.enabled:
            self.tracer.add_event(
                "net.corrupt_drop", {"node": self.node_id, "error": str(error)}
            )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._inbound[task] = writer
        buffer = bytearray()
        try:
            while not self._closed.is_set():
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return
                buffer.extend(chunk)
                for msg in decode_frames(buffer, on_corrupt=self._on_corrupt):
                    self._dispatch(msg)
        finally:
            del self._inbound[task]
            writer.close()

    def _dispatch(self, msg: Message) -> None:
        if msg.msg_id is not None:
            if self._dedup.seen((msg.src, msg.dst), msg.msg_id):
                self.duplicates_dropped += 1
                if self.tracer.enabled:
                    self.tracer.add_event(
                        "resilience.duplicate_dropped",
                        {"node": self.node_id, "mid": msg.msg_id},
                    )
                return
        if self.tracer.enabled:
            # The handler runs inside a span of this node, opened under the
            # span the message was sent from.
            with self.tracer.span(
                f"node.{msg.kind}",
                {
                    "node": self.node_id,
                    "kind": msg.kind,
                    "src": msg.src,
                    "messages": 1,
                    "bytes": msg.size_bytes,
                },
                parent=(msg.trace_id, msg.parent_span_id),
            ):
                self.tracer.add_event(
                    "net.recv", {"src": msg.src, "dst": msg.dst, "kind": msg.kind}
                )
                self._deliver(msg)
        else:
            self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        if self._handler is not None:
            self._handler(msg, self)
        else:
            self._inbox.put_nowait(msg)

    async def receive_async(self, timeout: float = RECV_TIMEOUT) -> Message:
        """Await the next inbox message (handler-less pull-style usage)."""
        try:
            return await asyncio.wait_for(self._inbox.get(), timeout)
        except asyncio.TimeoutError as exc:
            raise TransportTimeout(
                f"{self.node_id}: no message within {timeout}s"
            ) from exc

    def receive(
        self, timeout: float | None = None, deadline: Deadline | None = None
    ) -> Message:
        """Blocking receive for handler-less (pull-style) usage.

        Waits up to ``timeout`` (default :data:`RECV_TIMEOUT`), clamped by
        ``deadline`` when one is propagated from above.  Raises
        :class:`TransportTimeout` when the budget expires — a typed,
        retryable condition, distinct from :class:`TransportClosedError`.
        """
        budget = RECV_TIMEOUT if timeout is None else timeout
        if deadline is not None:
            deadline.check(f"tcp.receive[{self.node_id}]")
            budget = deadline.clamp(budget)
        return self._loop_thread.run(self.receive_async(budget), timeout=budget + 5)

    # -- lifecycle ---------------------------------------------------------

    async def _shutdown(self) -> None:
        self._server.close()
        for task in self._writer_tasks.values():
            task.cancel()
        for dst in list(self._writers):
            self._drop_connection(dst)
        # Closing an inbound stream reads as EOF in its serving task, which
        # then returns; a task still pending when the loop stops would be
        # cancelled instead, which asyncio's stream protocol logs as an error.
        for writer in self._inbound.values():
            writer.close()
        if self._inbound:
            await asyncio.wait(list(self._inbound))

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._loop_thread.running:
            try:
                self._loop_thread.run(self._shutdown(), timeout=10.0)
            except Exception:
                pass
        if self._owns_loop:
            self._loop_thread.close()


class AsyncTcpCluster:
    """``node_ids`` on ephemeral localhost ports, meshed, sharing one loop."""

    def __init__(
        self,
        node_ids: list[NodeId],
        tracer=None,
        loop_thread: LoopThread | None = None,
    ) -> None:
        self._owns_loop = loop_thread is None
        self.loop_thread = loop_thread or LoopThread(name="aio-tcp-cluster")
        self.nodes: dict[NodeId, AsyncTcpNode] = {
            node_id: AsyncTcpNode(
                node_id,
                loop_thread=self.loop_thread,
                tracer=tracer,
            )
            for node_id in node_ids
        }
        book = {node_id: node.address for node_id, node in self.nodes.items()}
        for node in self.nodes.values():
            node.learn_peers(book)

    def __getitem__(self, node_id: NodeId) -> AsyncTcpNode:
        return self.nodes[node_id]

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()
        if self._owns_loop:
            self.loop_thread.close()

    def __enter__(self) -> "AsyncTcpCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""The durable cluster store: per-node WALs + epoch checkpoints + compaction.

:class:`DurableDistributedLogStore` is a drop-in
:class:`~repro.logstore.store.DistributedLogStore` whose node stores are
:class:`~repro.store.durable.DurableFragmentStore` instances, each
journaling to ``<dir>/<node_id>/wal-*.seg``.  Layout of one store
directory::

    <dir>/
      checkpoint.seg         # epoch checkpoint: a header + one record per node
      P0/wal-00000000.seg    # per-node append-only journals
      P1/wal-00000000.seg
      ...

The checkpoint is framed WAL records: a ``"header"`` (plan, accumulator
parameters, next glsn), then one ``"node"`` record per node (fragments,
anchors, ACL replica).  Recovery = read ``checkpoint.seg`` + replay each
node's WAL, both through ``apply_wal_record`` (:mod:`repro.store.recovery`).  A :meth:`checkpoint` folds the journals
into a fresh checkpoint and truncates them; *compaction* is exactly a
checkpoint triggered in the background once any node accumulates
``StoreConfig.compact_segments`` sealed segments.  The compaction worker
registers with the perf engine's shutdown hooks so interpreter exit
stops it before the shared process pool.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path
from typing import Iterator

from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.tickets import Ticket, TicketAuthority
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.store import DistributedLogStore, WriteReceipt
from repro.obs.metrics import LATENCY_BUCKETS_SECONDS, Histogram
from repro.obs.tracer import NOOP_TRACER
from repro.perf.engine import register_shutdown_hook, unregister_shutdown_hook
from repro.store.config import StoreConfig
from repro.store.durable import DurableFragmentStore
from repro.store.wal import WriteAheadLog

__all__ = ["DurableDistributedLogStore", "CHECKPOINT_FILE"]

CHECKPOINT_FILE = "checkpoint.seg"

_log = logging.getLogger("repro.store")


class _Compactor:
    """Background checkpoint worker (event-driven, daemon thread)."""

    def __init__(self, store: "DurableDistributedLogStore") -> None:
        self._store = store
        self._wake = threading.Event()
        self._stop = threading.Event()
        self.runs = 0
        self.failures = 0
        #: The exception of the latest failed background checkpoint.
        self.last_error: Exception | None = None
        self._thread = threading.Thread(
            target=self._loop, name="store-compactor", daemon=True
        )
        self._thread.start()

    def trigger(self) -> None:
        self._wake.set()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=10)

    def _loop(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                self._store.checkpoint()
                self.runs += 1
            except Exception as error:  # the worker must outlive a failed run
                _log.exception("background checkpoint of %s failed", self._store.directory)
                self.failures += 1
                self.last_error = error


class DurableDistributedLogStore(DistributedLogStore):
    """Durable, crash-recoverable variant of the cluster write path."""

    def __init__(
        self,
        plan: FragmentPlan,
        authority: TicketAuthority,
        acc_params: AccumulatorParams,
        directory: str | os.PathLike,
        config: StoreConfig | None = None,
        tracer=None,
        initial_checkpoint: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = config or StoreConfig()
        self.store_tracer = tracer or NOOP_TRACER
        self.wals: dict[str, WriteAheadLog] = {}
        self._mutation_lock = threading.RLock()
        self._closed = False

        def factory(node_id: str) -> DurableFragmentStore:
            wal = WriteAheadLog(self.directory / node_id, self.config)
            self.wals[node_id] = wal
            return DurableFragmentStore(node_id, authority, wal)

        super().__init__(
            plan,
            authority,
            acc_params,
            tracer=tracer,
            store_factory=factory,
        )
        self.compactor: _Compactor | None = (
            _Compactor(self) if self.config.compact else None
        )
        self.checkpoints_written = 0
        self.checkpoint_seconds = Histogram(LATENCY_BUCKETS_SECONDS)
        register_shutdown_hook(self.close)
        # A brand-new directory gets an (empty) checkpoint immediately so
        # the accumulator parameters and fragment plan are on disk before
        # the first append — recovery then never needs out-of-band state.
        if initial_checkpoint and not self.checkpoint_path.exists():
            self.checkpoint()

    # -- paths ---------------------------------------------------------------

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_FILE

    # -- write path ----------------------------------------------------------

    def append(self, values: dict, ticket: Ticket) -> WriteReceipt:
        with self._mutation_lock:
            receipt = super().append(values, ticket)
        self._maybe_compact()
        return receipt

    def append_batch(
        self, rows: list[dict], ticket: Ticket
    ) -> list[WriteReceipt]:
        """Batched append: one WAL sync per batch instead of per record.

        The streaming-ingest path calls this once per ingest epoch; the
        durability point of the whole batch is the trailing
        :meth:`sync_wals` (policy-dependent fsync), so an epoch is either
        fully durable or rolled back as a torn tail on recovery.
        """
        with self._mutation_lock:
            receipts = []
            for values in rows:
                receipts.append(super().append(values, ticket))
            self.sync_wals()
        self._maybe_compact()
        return receipts

    def delete_record(self, glsn: int, ticket: Ticket) -> None:
        with self._mutation_lock:
            super().delete_record(glsn, ticket)
            self.sync_wals()

    def sync_wals(self) -> None:
        """Fsync every node's WAL (unless the policy is ``off``)."""
        for wal in self.wals.values():
            wal.sync()

    # -- checkpoint / compaction ---------------------------------------------

    def checkpoint(self) -> Path:
        """Write an epoch checkpoint atomically, then truncate the WALs.

        Crash windows are safe in both directions: before the rename the
        old checkpoint + full WALs still reconstruct everything.  The
        store directory is fsynced after the rename, so the rename is on
        disk before any segment is unlinked; WAL records that outlive it
        only overlap the checkpoint, and replay is idempotent.
        """
        started = time.monotonic()
        with self._mutation_lock:
            with self.store_tracer.span(
                "store.checkpoint", {"dir": str(self.directory)}
            ):
                tmp = self.checkpoint_path.with_suffix(".seg.tmp")
                with open(tmp, "wb") as handle:
                    for record in self._checkpoint_records():
                        handle.write(WriteAheadLog.encode_record(record))
                    handle.flush()
                    if self.config.fsync != "off":
                        os.fsync(handle.fileno())
                os.replace(tmp, self.checkpoint_path)
                if self.config.fsync != "off":
                    directory = os.open(self.directory, os.O_RDONLY)
                    try:
                        os.fsync(directory)
                    finally:
                        os.close(directory)
                for wal in self.wals.values():
                    wal.reset()
        self.checkpoints_written += 1
        self.checkpoint_seconds.observe(time.monotonic() - started)
        return self.checkpoint_path

    def _checkpoint_records(self) -> Iterator[dict]:
        """The header, then one record per node, each built as it is written."""
        params = self.accumulator.params
        yield {
            "op": "header",
            "schema": [[a.name, a.kind.value] for a in self.plan.schema],
            "assignment": self.plan.assignment,
            "allow_overlap": self.plan.allow_overlap,
            "n": params.n,
            "x0": params.x0,
            "next_glsn": self.allocator.next_value,
        }
        for node_id, node in self.stores.items():
            glsns = node.glsns
            yield {
                "op": "node",
                "node": node_id,
                "glsns": glsns,
                "anchors": [node.expected_accumulator(g) for g in glsns],
                "values": [node.local_fragment(g).values for g in glsns],
                "acl": [
                    [entry.ticket_id, sorted(op.value for op in entry.operations),
                     sorted(entry.glsns)]
                    for entry in node.acl._entries.values()
                ],
            }

    def _maybe_compact(self) -> None:
        if self.compactor is None:
            return
        threshold = self.config.compact_segments
        if any(
            wal.sealed_segment_count >= threshold for wal in self.wals.values()
        ):
            self.compactor.trigger()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop compaction, flush + fsync every WAL, release handles.

        Idempotent; also registered as a perf-engine shutdown hook so an
        interpreter exit without an explicit close still quiesces the
        background worker and lands buffered records on disk.
        """
        if self._closed:
            return
        self._closed = True
        if self.compactor is not None:
            self.compactor.stop()
        with self._mutation_lock:
            for wal in self.wals.values():
                wal.close()
        unregister_shutdown_hook(self.close)

    def __enter__(self) -> "DurableDistributedLogStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""The durable cluster store: per-node WALs + epoch checkpoints + compaction.

:class:`DurableDistributedLogStore` is a drop-in
:class:`~repro.logstore.store.DistributedLogStore` whose node stores are
:class:`~repro.store.durable.DurableFragmentStore` instances, each
journaling to ``<dir>/<node_id>/wal-*.seg``.  Layout of one store
directory::

    <dir>/
      checkpoint.json        # epoch snapshot (persistence format v2)
      P0/wal-00000000.seg    # per-node append-only journals
      P1/wal-00000000.seg
      ...

Recovery = load ``checkpoint.json`` + replay each node's WAL
(:mod:`repro.store.recovery`).  A :meth:`checkpoint` folds the journals
into a fresh snapshot and truncates them; *compaction* is exactly a
checkpoint triggered in the background once any node accumulates
``REPRO_STORE_COMPACT_SEGMENTS`` sealed segments.  The compaction worker
registers with the perf engine's shutdown hooks so interpreter exit
stops it before the shared process pool.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.tickets import Ticket, TicketAuthority
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.persistence import snapshot_store
from repro.logstore.store import DistributedLogStore, WriteReceipt
from repro.obs.tracer import NOOP_TRACER
from repro.perf.engine import register_shutdown_hook, unregister_shutdown_hook
from repro.store.config import StoreConfig
from repro.store.durable import DurableFragmentStore
from repro.store.wal import WriteAheadLog

__all__ = ["DurableDistributedLogStore", "CHECKPOINT_FILE"]

CHECKPOINT_FILE = "checkpoint.json"


class _Compactor:
    """Background checkpoint worker (event-driven, daemon thread)."""

    def __init__(self, store: "DurableDistributedLogStore") -> None:
        self._store = store
        self._wake = threading.Event()
        self._stop = threading.Event()
        self.runs = 0
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
            except Exception:  # pragma: no cover - best-effort background work
                pass


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
        metrics=None,
        initial_checkpoint: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = config or StoreConfig()
        self.metrics = metrics
        self.store_tracer = tracer or NOOP_TRACER
        self.wals: dict[str, WriteAheadLog] = {}
        self._mutation_lock = threading.RLock()
        self._closed = False

        def factory(node_id: str) -> DurableFragmentStore:
            wal = WriteAheadLog(
                self.directory / node_id, self.config, metrics=metrics
            )
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

    def flush_wals(self) -> None:
        """Drain every node's WAL buffer to its segment file."""
        for wal in self.wals.values():
            wal.flush()

    def sync_wals(self) -> None:
        """Flush and (policy permitting) fsync every node's WAL."""
        for wal in self.wals.values():
            wal.sync()

    # -- checkpoint / compaction ---------------------------------------------

    def checkpoint(self) -> Path:
        """Write an epoch snapshot atomically, then truncate the WALs.

        Crash windows are safe in both directions: before the rename the
        old checkpoint + full WALs still reconstruct everything; after
        the rename but before truncation the WAL records overlap the
        snapshot, and replay is idempotent.
        """
        started = time.monotonic()
        with self._mutation_lock:
            with self.store_tracer.span(
                "store.checkpoint", {"dir": str(self.directory)}
            ):
                snapshot = snapshot_store(self)
                tmp = self.checkpoint_path.with_suffix(".json.tmp")
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump(snapshot, handle, separators=(",", ":"))
                    handle.flush()
                    if self.config.fsync != "off":
                        os.fsync(handle.fileno())
                os.replace(tmp, self.checkpoint_path)
                for wal in self.wals.values():
                    wal.reset()
        self.checkpoints_written += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_store_checkpoints_total",
                help="epoch snapshots written (incl. background compaction)",
            ).inc()
            self.metrics.histogram(
                "repro_store_checkpoint_seconds",
                help="wall time of one checkpoint (snapshot + WAL truncation)",
            ).observe(time.monotonic() - started)
        return self.checkpoint_path

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

"""Durable storage for the DLA cluster: WAL, checkpoints, recovery.

``repro.logstore`` is the in-memory storage engine; this package makes
it durable without changing its read path.  The pieces:

* :class:`~repro.store.config.StoreConfig` — settings; the directory
  and the fsync policy also come from the environment (see
  ``docs/storage.md``);
* :class:`~repro.store.wal.WriteAheadLog` — per-node append-only
  segment files with rotation and torn-tail-tolerant replay;
* :class:`~repro.store.durable.DurableFragmentStore` — the
  :class:`~repro.logstore.store.FragmentStore` interface, journaled;
* :class:`~repro.store.cluster.DurableDistributedLogStore` — the
  cluster write path with epoch checkpoints and background compaction;
* :func:`~repro.store.recovery.open_durable_store` — open-or-recover,
  the only call sites outside tests should need.
"""

from repro.store.cluster import CHECKPOINT_FILE, DurableDistributedLogStore
from repro.store.config import StoreConfig
from repro.store.durable import DurableFragmentStore
from repro.store.recovery import RecoveryReport, open_durable_store, recover_store
from repro.store.wal import WalReplayReport, WriteAheadLog

__all__ = [
    "CHECKPOINT_FILE",
    "DurableDistributedLogStore",
    "DurableFragmentStore",
    "RecoveryReport",
    "StoreConfig",
    "WalReplayReport",
    "WriteAheadLog",
    "open_durable_store",
    "recover_store",
]

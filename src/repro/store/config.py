"""Configuration of the durable storage backend.

Two settings are read from the environment (the Configuration table of
``docs/api.md``):

* ``REPRO_STORE_DIR`` — root directory for durable state.  Setting it
  makes :class:`~repro.core.service.ConfidentialAuditingService` build a
  :class:`~repro.store.DurableDistributedLogStore` instead of the
  in-memory store.
* ``REPRO_STORE_FSYNC`` — fsync policy: ``always`` (fsync every WAL
  write — one per node per batch, a single append being written as a
  one-row batch — before any of the batch's receipts is returned;
  slowest, strongest), ``batch`` (fsync on ingest batch, rotation,
  checkpoint and close — the default), or ``off`` (let the OS page
  cache decide).

The remaining :class:`StoreConfig` fields (segment size, compaction) are
constructor arguments only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["StoreConfig", "DIR_ENV_VAR", "FSYNC_ENV_VAR"]

DIR_ENV_VAR = "REPRO_STORE_DIR"
FSYNC_ENV_VAR = "REPRO_STORE_FSYNC"

_FSYNC_POLICIES = ("always", "batch", "off")


@dataclass(frozen=True)
class StoreConfig:
    """Durable-store settings; :meth:`from_env` reads the directory and
    the fsync policy."""

    directory: str | None = None
    #: WAL segment size before rotation: smaller segments mean
    #: finer-grained compaction, larger ones fewer file handles.
    segment_bytes: int = 1 << 20
    fsync: str = "batch"
    #: Sealed-segment count per node that triggers background compaction
    #: (checkpoint + WAL truncation).
    compact_segments: int = 4
    #: ``False`` disables background compaction (checkpoints then only
    #: happen when requested explicitly).
    compact: bool = True

    def __post_init__(self) -> None:
        if self.fsync not in _FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync policy {self.fsync!r} not one of {_FSYNC_POLICIES}"
            )
        if self.segment_bytes < 1:
            raise ConfigurationError("segment_bytes must be positive")
        if self.compact_segments < 1:
            raise ConfigurationError("compact_segments must be positive")

    @classmethod
    def from_env(cls) -> "StoreConfig":
        fsync = os.environ.get(FSYNC_ENV_VAR, cls.fsync).strip().lower()
        if fsync not in _FSYNC_POLICIES:
            raise ConfigurationError(
                f"{FSYNC_ENV_VAR}={fsync!r} not one of {_FSYNC_POLICIES}"
            )
        return cls(directory=os.environ.get(DIR_ENV_VAR) or None, fsync=fsync)

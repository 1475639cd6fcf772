"""Environment knobs for the durable storage backend (``REPRO_STORE_*``).

* ``REPRO_STORE_DIR`` — root directory for durable state.  Setting it
  makes :class:`~repro.core.service.ConfidentialAuditingService` build a
  :class:`~repro.store.DurableDistributedLogStore` instead of the
  in-memory store.
* ``REPRO_STORE_SEGMENT_BYTES`` — WAL segment size before rotation
  (default 1 MiB).  Smaller segments mean finer-grained compaction,
  larger ones fewer file handles.
* ``REPRO_STORE_FSYNC`` — fsync policy: ``always`` (fsync every flush —
  slowest, strongest), ``batch`` (fsync on rotation/checkpoint/close —
  the default), or ``off`` (let the OS page cache decide).
* ``REPRO_STORE_BATCH_WINDOW`` — write-batching window in seconds.
  ``0`` (default) flushes every record; a positive window buffers
  records and flushes once the first buffered record is that old (or on
  rotation/checkpoint/close), trading a bounded durability window for
  fewer syscalls on append-heavy ingest.
* ``REPRO_STORE_COMPACT_SEGMENTS`` — sealed-segment count per node that
  triggers background compaction (checkpoint + WAL truncation;
  default 4).
* ``REPRO_STORE_COMPACT`` — ``off`` disables background compaction
  entirely (checkpoints then only happen when requested explicitly).

Every knob is also a :class:`StoreConfig` field, so embedders can pass
explicit configuration instead of mutating the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "StoreConfig",
    "DIR_ENV_VAR",
    "SEGMENT_BYTES_ENV_VAR",
    "FSYNC_ENV_VAR",
    "BATCH_WINDOW_ENV_VAR",
    "COMPACT_SEGMENTS_ENV_VAR",
    "COMPACT_ENV_VAR",
]

DIR_ENV_VAR = "REPRO_STORE_DIR"
SEGMENT_BYTES_ENV_VAR = "REPRO_STORE_SEGMENT_BYTES"
FSYNC_ENV_VAR = "REPRO_STORE_FSYNC"
BATCH_WINDOW_ENV_VAR = "REPRO_STORE_BATCH_WINDOW"
COMPACT_SEGMENTS_ENV_VAR = "REPRO_STORE_COMPACT_SEGMENTS"
COMPACT_ENV_VAR = "REPRO_STORE_COMPACT"

_FSYNC_POLICIES = ("always", "batch", "off")
_OFF_VALUES = {"off", "0", "false", "no", "disabled"}


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"{name}={raw!r} is not an integer") from None
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}")
    return value


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{name}={raw!r} is not a number") from None
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative")
    return value


@dataclass(frozen=True)
class StoreConfig:
    """Durable-store knobs; :meth:`from_env` reads the ``REPRO_STORE_*`` set."""

    directory: str | None = None
    segment_bytes: int = 1 << 20
    fsync: str = "batch"
    batch_window: float = 0.0
    compact_segments: int = 4
    compact: bool = True

    def __post_init__(self) -> None:
        if self.fsync not in _FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync policy {self.fsync!r} not one of {_FSYNC_POLICIES}"
            )
        if self.segment_bytes < 1:
            raise ConfigurationError("segment_bytes must be positive")
        if self.batch_window < 0:
            raise ConfigurationError("batch_window must be non-negative")
        if self.compact_segments < 1:
            raise ConfigurationError("compact_segments must be positive")

    @classmethod
    def from_env(cls) -> "StoreConfig":
        fsync = os.environ.get(FSYNC_ENV_VAR, cls.fsync).strip().lower()
        if fsync not in _FSYNC_POLICIES:
            raise ConfigurationError(
                f"{FSYNC_ENV_VAR}={fsync!r} not one of {_FSYNC_POLICIES}"
            )
        compact_raw = os.environ.get(COMPACT_ENV_VAR, "on").strip().lower()
        return cls(
            directory=os.environ.get(DIR_ENV_VAR) or None,
            segment_bytes=_env_int(SEGMENT_BYTES_ENV_VAR, cls.segment_bytes),
            fsync=fsync,
            batch_window=_env_float(BATCH_WINDOW_ENV_VAR, cls.batch_window),
            compact_segments=_env_int(COMPACT_SEGMENTS_ENV_VAR, cls.compact_segments),
            compact=compact_raw not in _OFF_VALUES,
        )

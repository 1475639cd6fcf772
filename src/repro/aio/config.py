"""Configuration knobs of the async core (the ``REPRO_AIO_*`` family).

Documented in ``docs/async.md``; the docs-consistency suite sweeps this
package for ``REPRO_AIO_`` references and fails CI on any knob the docs
do not list.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "AioConfig",
    "MAX_INFLIGHT_ENV_VAR",
    "SCHEDULER_ENV_VAR",
    "aio_scheduler_enabled",
]

#: Bound on concurrently *executing* query tasks (admission is unbounded:
#: excess queries are parked asyncio.Tasks awaiting the semaphore, which
#: cost a few KB each instead of an OS thread each).
MAX_INFLIGHT_ENV_VAR = "REPRO_AIO_MAX_INFLIGHT"
#: Whether ``ConfidentialAuditingService.scheduler`` hands out the async
#: scheduler (default) or the legacy thread pool (``off``).
SCHEDULER_ENV_VAR = "REPRO_AIO_SCHEDULER"

_OFF_VALUES = {"off", "0", "false", "no", "disabled"}


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"{name}={raw!r} is not an integer") from None
    if value < 1:
        raise ConfigurationError(f"{name} must be positive")
    return value


def aio_scheduler_enabled() -> bool:
    """Whether the service's lazy scheduler should be the async one."""
    raw = os.environ.get(SCHEDULER_ENV_VAR, "on").strip().lower()
    return raw not in _OFF_VALUES


@dataclass(frozen=True)
class AioConfig:
    """Async-core knobs; :meth:`from_env` reads the ``REPRO_AIO_*`` set."""

    max_inflight: int = 256

    @classmethod
    def from_env(cls) -> "AioConfig":
        return cls(max_inflight=_env_int(MAX_INFLIGHT_ENV_VAR, cls.max_inflight))

"""Retry and deadline policies for fault-tolerant protocol execution.

The transports and ring protocols tolerate message loss by *retrying*
(at-least-once delivery) and bound the damage of a dead peer by
*deadlines* that propagate from
:meth:`repro.core.service.ConfidentialAuditingService.audited_query` down
through the planner and executor into every SMC round.

Both knobs are deterministic: backoff jitter is drawn from a
:class:`~repro.crypto.rng.DeterministicRng`, so a seeded chaos run
retries at exactly the same (virtual) times every time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError, DeadlineExceededError

__all__ = ["Deadline", "RetryPolicy"]


class Deadline:
    """A wall-clock time budget threaded through a call chain.

    Constructed once at the top of an operation
    (``Deadline.after(seconds)``) and passed down; every layer that can
    block calls :meth:`check` (raises) or :meth:`clamp` (bounds its own
    timeout).  ``Deadline.never()`` is an infinite budget that all checks
    pass, so call sites need no ``None`` branches.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, expires_at: float | None) -> None:
        self._expires_at = expires_at

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        """Budget of ``seconds`` from now (``None`` -> no deadline)."""
        if seconds is None:
            return cls(None)
        if seconds < 0:
            raise ConfigurationError(f"deadline must be non-negative, got {seconds}")
        return cls(time.monotonic() + seconds)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self._expires_at is not None

    def remaining(self) -> float:
        """Seconds left (``inf`` when infinite; clamped at 0)."""
        if self._expires_at is None:
            return float("inf")
        return max(0.0, self._expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    def check(self, stage: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"deadline exceeded{f' in {stage}' if stage else ''}", stage=stage
            )

    def clamp(self, timeout: float | None) -> float | None:
        """The tighter of ``timeout`` and the remaining budget."""
        if self._expires_at is None:
            return timeout
        rest = self.remaining()
        return rest if timeout is None else min(timeout, rest)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Attempt ``i`` (1-based; attempt 1 is the original send) that fails
    waits ``min(base_delay * multiplier**(i-1), max_delay)`` scaled by a
    jitter factor in ``[1-jitter, 1+jitter]`` before attempt ``i+1``.
    ``ack_timeout`` is how long a reliable sender waits for the receiver's
    acknowledgement before declaring the attempt lost.

    Jitter randomness comes from ``rng`` (a spawned child stream, so the
    protocol parties' randomness is untouched); with the default seed the
    whole retry schedule is reproducible.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    ack_timeout: float = 0.25
    rng: DeterministicRng = field(
        default_factory=lambda: DeterministicRng(b"retry-policy"), repr=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.ack_timeout <= 0:
            raise ConfigurationError("retry delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Delay before the retry that follows failed attempt ``attempt``."""
        if attempt < 1:
            raise ConfigurationError("attempt numbers are 1-based")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if not self.jitter:
            return raw
        factor = 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        return raw * factor

    def exhausted(self, attempt: int) -> bool:
        return attempt >= self.max_attempts

"""Failure injection for the simulated network.

Integrity checking (paper §4.1) and the evidence chain (§4.2) exist because
nodes and links misbehave.  The test suite injects exactly those
misbehaviours: message drop, duplication, reordering (extra delay), payload
corruption, and network partitions.  A :class:`FaultPlan` is attached to a
:class:`~repro.net.simnet.SimNetwork` and consulted on every send.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError
from repro.net.message import Message

__all__ = ["FaultDecision", "FaultPlan"]


@dataclass(frozen=True)
class FaultDecision:
    """What the fault layer decided for one message."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0
    corrupt: bool = False


class FaultPlan:
    """Probabilistic + rule-based fault injection.

    Parameters are probabilities in ``[0, 1]``; ``rng`` must be supplied for
    reproducible experiments.  Partitions are directional pairs; use
    :meth:`partition` to cut both directions.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        reorder_delay: float = 5.0,
        rng: DeterministicRng | None = None,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("reorder_rate", reorder_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.corrupt_rate = corrupt_rate
        self.reorder_delay = reorder_delay
        self._rng = rng or DeterministicRng(b"fault-plan")
        self._partitioned: set[tuple[str, str]] = set()
        self._down: set[str] = set()

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` in both directions."""
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, a: str, b: str) -> None:
        """Restore the link between ``a`` and ``b``."""
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    def heal_all(self) -> None:
        self._partitioned.clear()
        self._down.clear()

    def crash(self, node: str) -> None:
        """Mark a node as down: nothing is delivered to or from it."""
        self._down.add(node)

    def recover(self, node: str) -> None:
        self._down.discard(node)

    def is_partitioned(self, src: str, dst: str) -> bool:
        return (
            (src, dst) in self._partitioned
            or src in self._down
            or dst in self._down
        )

    def decide(self, msg: Message) -> FaultDecision:
        """Roll the dice for one message."""
        if self.is_partitioned(msg.src, msg.dst):
            return FaultDecision(drop=True)
        if self.drop_rate and self._rng.random() < self.drop_rate:
            return FaultDecision(drop=True)
        duplicate = bool(
            self.duplicate_rate and self._rng.random() < self.duplicate_rate
        )
        delay = (
            self.reorder_delay
            if self.reorder_rate and self._rng.random() < self.reorder_rate
            else 0.0
        )
        corrupt = bool(
            self.corrupt_rate and self._rng.random() < self.corrupt_rate
        )
        return FaultDecision(duplicate=duplicate, extra_delay=delay, corrupt=corrupt)


@dataclass
class TamperRule:
    """Deterministic, targeted tampering (used by integrity-check tests).

    Unlike the probabilistic :class:`FaultPlan`, a tamper rule replaces the
    payload of messages matching ``kind`` exactly once, emulating a
    compromised DLA node altering a log fragment in flight.
    """

    kind: str
    mutate: callable = None  # payload -> payload
    fired: bool = field(default=False, init=False)

    def apply(self, msg: Message) -> Message:
        if self.fired or msg.kind != self.kind or self.mutate is None:
            return msg
        self.fired = True
        return Message(
            src=msg.src, dst=msg.dst, kind=msg.kind, payload=self.mutate(msg.payload)
        )

"""Random query mixes for sweeps and benchmarks.

The scaling benchmarks need criteria of controllable shape over a given
schema and fragment plan: clause count and predicate mix (local/cross
ratio).  This module generates them deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.rng import DeterministicRng
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.schema import AttributeKind, GlobalSchema

__all__ = ["WorkloadGenerator"]


@dataclass
class WorkloadGenerator:
    """Deterministic generator of audit criteria."""

    seed: int = 42

    def __post_init__(self) -> None:
        self._rng = DeterministicRng(f"generator:{self.seed}")

    # -- queries ----------------------------------------------------------------

    def local_criterion(self, schema: GlobalSchema) -> str:
        """A single attribute-vs-constant predicate."""
        numeric = [
            a.name for a in schema
            if a.kind in (AttributeKind.INTEGER, AttributeKind.UNDEFINED)
        ]
        attr = self._rng.choice(numeric)
        return f"{attr} > {self._rng.randint(0, 500)}"

    def cross_criterion(self, schema: GlobalSchema, plan: FragmentPlan) -> str:
        """An attribute-vs-attribute predicate spanning two nodes."""
        numeric = [
            a.name for a in schema
            if a.kind in (AttributeKind.INTEGER, AttributeKind.UNDEFINED)
        ]
        for _ in range(200):
            left = self._rng.choice(numeric)
            right = self._rng.choice(numeric)
            if left != right and plan.home_of(left) != plan.home_of(right):
                op = self._rng.choice(["=", "<", ">"])
                return f"{left} {op} {right}"
        # Degenerate plan (everything on one node): fall back to local.
        return self.local_criterion(schema)

    def criterion_mix(
        self,
        schema: GlobalSchema,
        plan: FragmentPlan,
        clauses: int = 3,
        cross_fraction: float = 0.5,
    ) -> str:
        """A conjunctive criterion with a controlled local/cross mix."""
        parts = []
        for _ in range(max(1, clauses)):
            if self._rng.random() < cross_fraction:
                parts.append(self.cross_criterion(schema, plan))
            else:
                parts.append(self.local_criterion(schema))
        return " and ".join(f"({p})" for p in parts)

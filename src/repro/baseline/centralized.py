"""Centralized auditing baseline (paper Figure 1).

"The operational information systems submit the logging data to a log
repository subsystem, and then the auditor uses the log repository to
generate the auditing reports."  One process holds every complete record;
queries evaluate directly.  This is the comparator for the DLA design:
cheaper per query (no SMC, no fragmentation) but the auditor sees all raw
data — its store confidentiality is identically zero (``u = 1`` node and
nothing is opaque to it, so the §5 intuition collapses; we report 0).

The query language is shared with the DLA engine (same parser/normalizer),
so benchmark comparisons are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit.ast_nodes import Constant, Predicate
from repro.audit.normalize import to_conjunctive_form
from repro.audit.parser import parse_criterion
from repro.errors import AuditError
from repro.logstore.records import LogRecord
from repro.logstore.schema import GlobalSchema

__all__ = ["CentralizedAuditor"]


def _compare(op: str, left, right) -> bool:
    try:
        l, r = float(left), float(right)
    except (TypeError, ValueError):
        l, r = str(left), str(right)
    return {
        "<": l < r,
        ">": l > r,
        "=": l == r,
        "!=": l != r,
        "<=": l <= r,
        ">=": l >= r,
    }[op]


@dataclass
class CentralizedAuditor:
    """The Figure 1 repository: full records, direct evaluation."""

    schema: GlobalSchema
    records: list[LogRecord] = field(default_factory=list)

    def ingest(self, record: LogRecord) -> None:
        record.validate_against(self.schema)
        self.records.append(record)

    def _predicate_holds(self, pred: Predicate, record: LogRecord) -> bool:
        left = record.get(pred.left.name)
        if left is None:
            return False
        if isinstance(pred.right, Constant):
            right = pred.right.value
        else:
            right = record.get(pred.right.name)
            if right is None:
                return False
        return _compare(pred.op, left, right)

    def execute(self, criterion: str) -> list[int]:
        """Evaluate a criterion over the full repository; returns glsns."""
        form = to_conjunctive_form(parse_criterion(criterion, self.schema))
        out = []
        for record in self.records:
            if all(
                any(self._predicate_holds(p, record) for p in clause)
                for clause in form.clauses
            ):
                out.append(record.glsn)
        return out

    def aggregate(self, op: str, attribute: str, criterion: str | None = None):
        """Direct aggregate over the repository."""
        matching = set(self.execute(criterion)) if criterion else None
        values = [
            record.values[attribute]
            for record in self.records
            if attribute in record.values
            and (matching is None or record.glsn in matching)
        ]
        if op == "count":
            return len(values)
        numeric = [float(v) for v in values]
        if op == "sum":
            total = sum(numeric)
            return int(total) if all(isinstance(v, int) for v in values) else total
        if op == "max":
            return max(numeric) if numeric else None
        if op == "min":
            return min(numeric) if numeric else None
        raise AuditError(f"unknown aggregate op {op!r}")

    @property
    def store_confidentiality(self) -> float:
        """The centralized model's C_store: the repository sees everything."""
        return 0.0

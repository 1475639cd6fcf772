"""The recovery audit: prove integrity immediately after a restart.

A restored store is only trustworthy once the §4.1 integrity sweep has
re-verified every fragment against its accumulator anchor — a crash (or
a restore from a tampered checkpoint/WAL) is exactly the window in which
"access control tables and log records could be modified".  The durable
backend (:mod:`repro.store.recovery`) runs this audit as the final step
of every crash recovery; tests and operators can also invoke it
directly on any store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RecoveryAuditReport", "recovery_audit"]


@dataclass(frozen=True)
class RecoveryAuditReport:
    """Outcome of one post-restart integrity sweep."""

    clean: bool
    checked: int
    #: glsns whose observed accumulator mismatched the stored anchor.
    failures: tuple[int, ...] = field(default_factory=tuple)


def recovery_audit(store) -> RecoveryAuditReport:
    """Local §4.1 sweep of every glsn on every node of ``store``.

    Uses the in-process :class:`~repro.logstore.integrity.IntegrityChecker`
    (the distributed ring variants need a network; right after recovery
    the cluster is by definition local).  Imported lazily — resilience is
    a lower layer than logstore's integrity protocols, which themselves
    use this package's failover supervision.
    """
    from repro.logstore.integrity import IntegrityChecker

    reports = IntegrityChecker(store).check_all()
    failures = tuple(r.glsn for r in reports if not r.ok)
    return RecoveryAuditReport(
        clean=not failures, checked=len(reports), failures=failures
    )

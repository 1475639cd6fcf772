"""The auditor role (paper Figures 1-2): issues queries, checks rules.

The auditor is *not* trusted with raw logs — it receives glsn-keyed query
results, aggregate values, rule verdicts and threshold-signed reports.
:class:`Auditor` is a convenience wrapper around the service's auditing
surface that additionally keeps every verified report it received.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit.executor import AggregateResult, QueryResult
from repro.core.rules import Rule, RuleVerdict
from repro.core.service import AuditReport, ConfidentialAuditingService
from repro.errors import AuditError

__all__ = ["Auditor"]


@dataclass
class Auditor:
    """An auditing principal bound to one service deployment."""

    auditor_id: str
    service: ConfidentialAuditingService
    reports: list[AuditReport] = field(default_factory=list)

    def query(
        self, criterion: str, timeout: float | None = None
    ) -> QueryResult:
        """Unsigned confidential query (exploration)."""
        return self.service.query(criterion, timeout=timeout)

    def audited_query(
        self, criterion: str, timeout: float | None = None
    ) -> AuditReport:
        """Signed query: result passes agreement + threshold signature."""
        report = self.service.audited_query(criterion, timeout=timeout)
        if not self.service.verify_report(report):
            raise AuditError("cluster returned a report that fails verification")
        self.reports.append(report)
        return report

    def aggregate(
        self,
        op: str,
        attribute: str,
        criterion: str | None = None,
        timeout: float | None = None,
    ) -> AggregateResult:
        """Confidential statistics: number of transactions, volumes, ..."""
        return self.service.aggregate(op, attribute, criterion, timeout=timeout)

    def check_rule(self, rule: Rule) -> RuleVerdict:
        """Evaluate one transaction rule r_j(T) confidentially; each query
        it asks is a service query of its own."""
        return rule.evaluate(self.service.query)

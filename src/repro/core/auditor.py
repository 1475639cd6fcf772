"""The auditor role (paper Figures 1-2): issues queries, checks rules.

The auditor is *not* trusted with raw logs — it receives glsn-keyed query
results, aggregate values, rule verdicts and threshold-signed reports.
:class:`Auditor` is a convenience wrapper around the service's auditing
surface that additionally tracks every report it received so sessions can
be re-verified later.
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

    def query_many(self, criteria, timeout: float | None = None) -> list[QueryResult]:
        """Batch of unsigned queries (results in input order).

        Delegates to :meth:`ConfidentialAuditingService.query_many`.
        """
        return self.service.query_many(criteria, timeout=timeout)

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
        """Evaluate one transaction rule r_j(T) confidentially."""
        return rule.evaluate(self.service.executor)

    def check_rules(self, rules: list[Rule]) -> list[RuleVerdict]:
        return [self.check_rule(rule) for rule in rules]

    def reverify_session(self) -> bool:
        """Re-verify every report collected in this auditing session."""
        return all(self.service.verify_report(r) for r in self.reports)

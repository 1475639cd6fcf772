"""Transaction rule checking R_T (paper §2 eq. 2, §4.2).

"Transaction control is described by the audit trails, which satisfies
transaction semantics defined in R_T (correlation, fairness,
non-repudiation, atomic, consistency checking, irregular pattern
detection)."

Each rule class compiles its semantics into *confidential* auditing
queries, asked through a ``query`` callable (``Auditor.check_rule``
passes ``service.query``), so the auditor verifies conformance without
reading raw log rows.  Every rule returns a :class:`RuleVerdict`
carrying the evidence glsns it relied on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.audit.executor import QueryResult
from repro.errors import AuditError

__all__ = [
    "RuleVerdict",
    "Rule",
    "AtomicityRule",
    "NonRepudiationRule",
    "CorrelationRule",
    "FairnessRule",
    "ConsistencyRule",
    "IrregularPatternRule",
    "OrderRule",
]


@dataclass(frozen=True)
class RuleVerdict:
    """Outcome of evaluating one rule ``r_j(T)``."""

    rule: str
    passed: bool
    detail: str
    evidence_glsns: tuple[int, ...] = ()


#: Runs one criterion confidentially and returns its result.
Query = Callable[[str], QueryResult]


class Rule:
    """Base class: a boolean condition over the (confidential) audit trail."""

    name = "rule"


@dataclass
class AtomicityRule(Rule):
    """All-or-nothing: a transaction instance must log all ``width`` events.

    Checked per transaction id: ``count(EID present where Tid = tsn)``
    must equal the type's width — a partially executed transaction fails.
    """

    tsn: str
    width: int
    name: str = "atomicity"

    def evaluate(self, query: Query) -> RuleVerdict:
        result = query(f"Tid = '{self.tsn}'")
        count = result.count
        passed = count == self.width
        return RuleVerdict(
            rule=self.name,
            passed=passed,
            detail=f"transaction {self.tsn}: {count}/{self.width} events logged",
            evidence_glsns=tuple(result.glsns),
        )


@dataclass
class NonRepudiationRule(Rule):
    """Both counterparties must have logged the transaction.

    A party cannot later deny participation if its own node's records for
    ``tsn`` exist — checked as: each expected party appears as ``id`` in
    at least one record of the transaction.
    """

    tsn: str
    parties: tuple[str, ...] = ()
    name: str = "non-repudiation"

    def evaluate(self, query: Query) -> RuleVerdict:
        missing = []
        evidence: list[int] = []
        for party in self.parties:
            result = query(f"Tid = '{self.tsn}' and id = '{party}'")
            if result.count == 0:
                missing.append(party)
            evidence.extend(result.glsns)
        passed = not missing
        detail = (
            f"transaction {self.tsn}: all parties logged"
            if passed
            else f"transaction {self.tsn}: no log evidence from {missing}"
        )
        return RuleVerdict(
            rule=self.name, passed=passed, detail=detail,
            evidence_glsns=tuple(sorted(set(evidence))),
        )


@dataclass
class CorrelationRule(Rule):
    """Distributed event correlation: records matching ``left_criterion``
    and ``right_criterion`` must co-occur (both non-empty, or both empty).

    The intrusion-detection use of §4.2: an alarm on host A is only
    actionable when the correlated trace on host B exists too.
    """

    left_criterion: str
    right_criterion: str
    name: str = "correlation"

    def evaluate(self, query: Query) -> RuleVerdict:
        left = query(self.left_criterion)
        right = query(self.right_criterion)
        passed = (left.count > 0) == (right.count > 0)
        return RuleVerdict(
            rule=self.name,
            passed=passed,
            detail=(
                f"left matches {left.count}, right matches {right.count}: "
                + ("correlated" if passed else "uncorrelated")
            ),
            evidence_glsns=tuple(sorted(set(left.glsns) | set(right.glsns))),
        )


@dataclass
class FairnessRule(Rule):
    """Both sides of an exchange perform a comparable number of actions.

    Checked as ``|count(a) - count(b)| <= tolerance`` over the two
    parties' matching records — a fairness proxy for exchange protocols.
    """

    criterion_a: str
    criterion_b: str
    tolerance: int = 0
    name: str = "fairness"

    def evaluate(self, query: Query) -> RuleVerdict:
        a = query(self.criterion_a)
        b = query(self.criterion_b)
        passed = abs(a.count - b.count) <= self.tolerance
        return RuleVerdict(
            rule=self.name,
            passed=passed,
            detail=f"counts {a.count} vs {b.count} (tolerance {self.tolerance})",
            evidence_glsns=tuple(sorted(set(a.glsns) | set(b.glsns))),
        )


@dataclass
class ConsistencyRule(Rule):
    """Cross-node consistency: an attribute pair must agree record-wise.

    Compiled to the cross equality predicate — the glsns where ``left``
    and ``right`` disagree (presence minus equality) must be empty.
    """

    left_attribute: str
    right_attribute: str
    name: str = "consistency"

    def evaluate(self, query: Query) -> RuleVerdict:
        mismatched = query(f"{self.left_attribute} != {self.right_attribute}")
        passed = mismatched.count == 0
        return RuleVerdict(
            rule=self.name,
            passed=passed,
            detail=(
                "attributes consistent"
                if passed
                else f"{mismatched.count} records disagree"
            ),
            evidence_glsns=tuple(mismatched.glsns),
        )


@dataclass
class IrregularPatternRule(Rule):
    """Anomaly detection: matches of ``criterion`` must stay below a cap.

    "Distributed security breaching is usually an aggregated effect of
    distributed events, each of which alone may appear to be harmless."
    The rule fires (fails) when the aggregate count crosses ``threshold``.
    """

    criterion: str
    threshold: int
    name: str = "irregular-pattern"

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise AuditError("threshold must be non-negative")

    def evaluate(self, query: Query) -> RuleVerdict:
        result = query(self.criterion)
        passed = result.count <= self.threshold
        return RuleVerdict(
            rule=self.name,
            passed=passed,
            detail=(
                f"{result.count} matching events "
                f"({'within' if passed else 'EXCEEDS'} threshold {self.threshold})"
            ),
            evidence_glsns=tuple(result.glsns),
        )


@dataclass
class OrderRule(Rule):
    """Order-of-events verification (paper §2: "order of events").

    The glsn is "a monotonically increasing integer" assigned at log
    time, so within one transaction the glsn order *is* the logging
    order.  The rule checks that every record matching
    ``first_criterion`` was logged before every record matching
    ``second_criterion`` (both scoped to the same transaction by the
    caller's criteria) — e.g. all ``place`` events precede all
    ``confirm`` events.
    """

    first_criterion: str
    second_criterion: str
    name: str = "event-order"

    def evaluate(self, query: Query) -> RuleVerdict:
        first = query(self.first_criterion)
        second = query(self.second_criterion)
        if not first.glsns or not second.glsns:
            return RuleVerdict(
                rule=self.name,
                passed=False,
                detail=(
                    f"missing events: first={first.count}, second={second.count}"
                ),
                evidence_glsns=tuple(sorted(set(first.glsns) | set(second.glsns))),
            )
        latest_first = max(first.glsns)
        earliest_second = min(second.glsns)
        passed = latest_first < earliest_second
        return RuleVerdict(
            rule=self.name,
            passed=passed,
            detail=(
                f"last 'first' glsn {latest_first:#x} "
                f"{'<' if passed else '>='} first 'second' glsn "
                f"{earliest_second:#x}"
            ),
            evidence_glsns=tuple(sorted(set(first.glsns) | set(second.glsns))),
        )

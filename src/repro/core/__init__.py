"""The paper's primary contribution, assembled: confidential DLA service.

* :class:`~repro.core.service.ConfidentialAuditingService` — full cluster;
* :class:`~repro.core.appnode.ApplicationNode` — a user node ``u_j``;
* :class:`~repro.core.auditor.Auditor` — the querying principal;
* :mod:`~repro.core.transaction` / :mod:`~repro.core.rules` — the
  transaction model ``T = {R_T, E_T, L_T, tsn, ttn}`` and the rule
  vocabulary (atomicity, non-repudiation, correlation, fairness,
  consistency, irregular-pattern detection).
"""

from repro.core.appnode import ApplicationNode
from repro.core.auditor import Auditor
from repro.core.rules import (
    AtomicityRule,
    ConsistencyRule,
    CorrelationRule,
    FairnessRule,
    IrregularPatternRule,
    NonRepudiationRule,
    OrderRule,
    Rule,
    RuleVerdict,
)
from repro.core.service import AuditReport, ConfidentialAuditingService
from repro.core.transaction import AtomicEvent, Transaction, TransactionType

__all__ = [
    "ConfidentialAuditingService",
    "AuditReport",
    "ApplicationNode",
    "Auditor",
    "AtomicEvent",
    "Transaction",
    "TransactionType",
    "Rule",
    "RuleVerdict",
    "AtomicityRule",
    "NonRepudiationRule",
    "CorrelationRule",
    "FairnessRule",
    "ConsistencyRule",
    "IrregularPatternRule",
    "OrderRule",
]

"""Tests for the transaction model and confidential rule checking."""

import pytest

from repro.audit.executor import QueryExecutor
from repro.core.rules import (
    AtomicityRule,
    ConsistencyRule,
    CorrelationRule,
    FairnessRule,
    IrregularPatternRule,
    NonRepudiationRule,
)
from repro.core.transaction import AtomicEvent, Transaction, TransactionType
from repro.crypto import AccumulatorParams, DeterministicRng, Operation
from repro.errors import AuditError, ConfigurationError
from repro.logstore.store import DistributedLogStore
from repro.smc.base import SmcContext


class TestTransactionModel:
    def test_type_needs_events(self):
        with pytest.raises(ConfigurationError):
            TransactionType("empty", ())

    def test_conformance(self):
        ttype = TransactionType("order", ("place", "confirm"))
        t = Transaction("T1", "order")
        t.add_event(AtomicEvent("place", "U1"))
        assert not t.conforms_to(ttype)
        t.add_event(AtomicEvent("confirm", "U2"))
        assert t.conforms_to(ttype)

    def test_wrong_order_fails_conformance(self):
        ttype = TransactionType("order", ("place", "confirm"))
        t = Transaction("T1", "order")
        t.add_event(AtomicEvent("confirm", "U2"))
        t.add_event(AtomicEvent("place", "U1"))
        assert not t.conforms_to(ttype)

    def test_executors(self):
        t = Transaction("T1", "order")
        t.add_event(AtomicEvent("a", "U2"))
        t.add_event(AtomicEvent("b", "U1"))
        assert t.executors == ["U1", "U2"]

    def test_log_values_defaults(self):
        event = AtomicEvent("place", "U1", {"C1": 5})
        values = event.log_values("T9", "order", 0)
        assert values["Tid"] == "T9"
        assert values["id"] == "U1"
        assert values["EID"] == "place#0"
        assert values["C1"] == 5

    def test_log_values_respects_overrides(self):
        event = AtomicEvent("place", "U1", {"id": "proxy"})
        assert event.log_values("T9", "order", 1)["id"] == "proxy"


@pytest.fixture()
def executor(table1_schema, table1_plan, ticket_authority, prime64):
    store = DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"rules")),
    )
    ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
    rows = [
        # T1: complete 2-event transaction by U1+U2.
        {"Tid": "T1", "id": "U1", "EID": "place#0", "C1": 10, "C3": "order"},
        {"Tid": "T1", "id": "U2", "EID": "confirm#1", "C1": 10, "C3": "confirm"},
        # T2: dangling (only the place event).
        {"Tid": "T2", "id": "U1", "EID": "place#0", "C1": 20, "C3": "order"},
        # Suspicious probes (3 of them).
        {"Tid": "S1", "id": "U3", "C1": 95, "C3": "probe"},
        {"Tid": "S2", "id": "U3", "C1": 96, "C3": "probe"},
        {"Tid": "S3", "id": "U4", "C1": 97, "C3": "probe"},
    ]
    store.append_batch(rows, ticket)
    ctx = SmcContext(prime64, DeterministicRng(b"rules-ctx"))
    return QueryExecutor(store, ctx, table1_schema)


class TestRules:
    def test_atomicity_pass(self, executor):
        verdict = AtomicityRule(tsn="T1", width=2).evaluate(executor.execute)
        assert verdict.passed
        assert len(verdict.evidence_glsns) == 2

    def test_atomicity_fail(self, executor):
        verdict = AtomicityRule(tsn="T2", width=2).evaluate(executor.execute)
        assert not verdict.passed
        assert "1/2" in verdict.detail

    def test_non_repudiation_pass(self, executor):
        verdict = NonRepudiationRule(tsn="T1", parties=("U1", "U2")).evaluate(executor.execute)
        assert verdict.passed

    def test_non_repudiation_fail_names_missing(self, executor):
        verdict = NonRepudiationRule(tsn="T2", parties=("U1", "U2")).evaluate(executor.execute)
        assert not verdict.passed
        assert "U2" in verdict.detail

    def test_correlation_pass(self, executor):
        verdict = CorrelationRule(
            left_criterion="C3 = 'order' and Tid = 'T1'",
            right_criterion="C3 = 'confirm' and Tid = 'T1'",
        ).evaluate(executor.execute)
        assert verdict.passed

    def test_correlation_fail(self, executor):
        verdict = CorrelationRule(
            left_criterion="C3 = 'order' and Tid = 'T2'",
            right_criterion="C3 = 'confirm' and Tid = 'T2'",
        ).evaluate(executor.execute)
        assert not verdict.passed

    def test_fairness(self, executor):
        ok = FairnessRule(
            criterion_a="id = 'U1' and C3 = 'order'",
            criterion_b="id = 'U2' and C3 = 'confirm'",
            tolerance=1,
        ).evaluate(executor.execute)
        assert ok.passed
        strict = FairnessRule(
            criterion_a="C3 = 'order'",
            criterion_b="C3 = 'confirm'",
            tolerance=0,
        ).evaluate(executor.execute)
        assert not strict.passed  # 2 orders vs 1 confirm

    def test_irregular_pattern_fires(self, executor):
        verdict = IrregularPatternRule(criterion="C1 > 90", threshold=2).evaluate(
            executor.execute
        )
        assert not verdict.passed
        assert len(verdict.evidence_glsns) == 3

    def test_irregular_pattern_quiet(self, executor):
        verdict = IrregularPatternRule(criterion="C1 > 90", threshold=5).evaluate(
            executor.execute
        )
        assert verdict.passed

    def test_irregular_threshold_validation(self):
        with pytest.raises(AuditError):
            IrregularPatternRule(criterion="C1 > 0", threshold=-1)

    def test_consistency_rule(self, executor):
        # C1 vs C1 is trivially consistent but exercises the != path...
        # use EID vs Tid which always differ -> inconsistent.
        verdict = ConsistencyRule("id", "EID").evaluate(executor.execute)
        assert not verdict.passed

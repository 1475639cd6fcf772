"""Three-party B2B settlement: order-of-events auditing end to end."""

import pytest

from repro.core import (
    ApplicationNode,
    AtomicEvent,
    Auditor,
    ConfidentialAuditingService,
    OrderRule,
    AtomicityRule,
    Transaction,
)
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.workloads.ecommerce import SETTLEMENT_TYPE


@pytest.fixture(scope="module")
def world():
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"settlement"),
    )
    nodes = {
        uid: ApplicationNode.register(uid, service)
        for uid in ("supplier", "buyer", "bank")
    }

    def log(transaction):
        for step, event in enumerate(transaction.events):
            values = event.log_values(transaction.tsn, transaction.ttn, step)
            nodes[event.executor].log_values(values)

    # S1: well-ordered invoice -> pay -> settle.
    good = Transaction(tsn="S1", ttn=SETTLEMENT_TYPE.ttn)
    good.add_event(AtomicEvent("invoice", "supplier", {"C3": "invoice", "C1": 100}))
    good.add_event(AtomicEvent("pay", "buyer", {"C3": "pay", "C1": 100}))
    good.add_event(AtomicEvent("settle", "bank", {"C3": "settle", "C1": 100}))
    log(good)

    # S2: payment logged BEFORE the invoice (suspicious).
    bad = Transaction(tsn="S2", ttn=SETTLEMENT_TYPE.ttn)
    bad.add_event(AtomicEvent("pay", "buyer", {"C3": "pay", "C1": 55}))
    bad.add_event(AtomicEvent("invoice", "supplier", {"C3": "invoice", "C1": 55}))
    bad.add_event(AtomicEvent("settle", "bank", {"C3": "settle", "C1": 55}))
    log(bad)

    # S3: never settled.
    dangling = Transaction(tsn="S3", ttn=SETTLEMENT_TYPE.ttn)
    dangling.add_event(AtomicEvent("invoice", "supplier", {"C3": "invoice", "C1": 7}))
    dangling.add_event(AtomicEvent("pay", "buyer", {"C3": "pay", "C1": 7}))
    log(dangling)

    return service, good, bad, dangling


class TestSettlementAuditing:
    def test_type_shape(self):
        assert SETTLEMENT_TYPE.expected_events == ("invoice", "pay", "settle")

    def test_good_settlement_passes_all_rules(self, world):
        service, good, _, _ = world
        auditor = Auditor("settlement-auditor", service)
        rules = [
            AtomicityRule(tsn=good.tsn, width=3),
            OrderRule(
                first_criterion=f"Tid = '{good.tsn}' and C3 = 'invoice'",
                second_criterion=f"Tid = '{good.tsn}' and C3 = 'pay'",
            ),
            OrderRule(
                first_criterion=f"Tid = '{good.tsn}' and C3 = 'pay'",
                second_criterion=f"Tid = '{good.tsn}' and C3 = 'settle'",
            ),
        ]
        assert all(auditor.check_rule(rule).passed for rule in rules)

    def test_pay_before_invoice_caught(self, world):
        service, _, bad, _ = world
        auditor = Auditor("settlement-auditor", service)
        verdict = auditor.check_rule(
            OrderRule(
                first_criterion=f"Tid = '{bad.tsn}' and C3 = 'invoice'",
                second_criterion=f"Tid = '{bad.tsn}' and C3 = 'pay'",
            )
        )
        assert not verdict.passed

    def test_unsettled_transaction_caught(self, world):
        service, _, _, dangling = world
        auditor = Auditor("settlement-auditor", service)
        verdict = auditor.check_rule(AtomicityRule(tsn=dangling.tsn, width=3))
        assert not verdict.passed
        assert "2/3" in verdict.detail

    def test_settlement_volume_aggregate(self, world):
        service, _, _, _ = world
        total = service.aggregate("sum", "C1", "C3 = 'settle'")
        assert total.value == 100 + 55

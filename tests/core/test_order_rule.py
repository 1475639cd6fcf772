"""Tests for the event-order rule (glsn-monotonicity based)."""

import pytest

from repro.audit.executor import QueryExecutor
from repro.core.rules import OrderRule
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.logstore.store import DistributedLogStore
from repro.smc.base import SmcContext


@pytest.fixture()
def executor(table1_schema, table1_plan, ticket_authority, prime64):
    store = DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"order")),
    )
    ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
    # T1: place then confirm (correct order).
    store.append({"Tid": "T1", "C3": "place"}, ticket)
    store.append({"Tid": "T1", "C3": "confirm"}, ticket)
    # T2: confirm logged BEFORE place (violation).
    store.append({"Tid": "T2", "C3": "confirm"}, ticket)
    store.append({"Tid": "T2", "C3": "place"}, ticket)
    # T3: interleaved places and confirms (violation: a place after a confirm).
    store.append({"Tid": "T3", "C3": "place"}, ticket)
    store.append({"Tid": "T3", "C3": "confirm"}, ticket)
    store.append({"Tid": "T3", "C3": "place"}, ticket)
    return QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(b"order-ctx")), table1_schema
    )


class TestOrderRule:
    def test_correct_order_passes(self, executor):
        verdict = OrderRule(
            first_criterion="Tid = 'T1' and C3 = 'place'",
            second_criterion="Tid = 'T1' and C3 = 'confirm'",
        ).evaluate(executor.execute)
        assert verdict.passed

    def test_inverted_order_fails(self, executor):
        verdict = OrderRule(
            first_criterion="Tid = 'T2' and C3 = 'place'",
            second_criterion="Tid = 'T2' and C3 = 'confirm'",
        ).evaluate(executor.execute)
        assert not verdict.passed

    def test_interleaving_fails(self, executor):
        verdict = OrderRule(
            first_criterion="Tid = 'T3' and C3 = 'place'",
            second_criterion="Tid = 'T3' and C3 = 'confirm'",
        ).evaluate(executor.execute)
        assert not verdict.passed

    def test_missing_events_fail(self, executor):
        verdict = OrderRule(
            first_criterion="Tid = 'T9' and C3 = 'place'",
            second_criterion="Tid = 'T9' and C3 = 'confirm'",
        ).evaluate(executor.execute)
        assert not verdict.passed
        assert "missing" in verdict.detail

    def test_evidence_covers_both_sides(self, executor):
        verdict = OrderRule(
            first_criterion="Tid = 'T1' and C3 = 'place'",
            second_criterion="Tid = 'T1' and C3 = 'confirm'",
        ).evaluate(executor.execute)
        assert len(verdict.evidence_glsns) == 2

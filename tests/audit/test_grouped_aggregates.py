"""Tests for the confidential GROUP BY aggregates."""

import pytest

from repro.audit.executor import QueryExecutor
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.errors import AuditError
from repro.logstore.store import DistributedLogStore
from repro.smc.base import SmcContext


@pytest.fixture()
def executor(table1_schema, table1_plan, ticket_authority, prime64):
    store = DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"group")),
    )
    ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
    rows = [
        # protocl (group, P3) vs C1 (measure, P3 — same node)
        # and C2 (measure, P1 — cross node).
        {"protocl": "UDP", "C1": 10, "C2": "1.00", "id": "U1"},
        {"protocl": "UDP", "C1": 20, "C2": "2.00", "id": "U1"},
        {"protocl": "UDP", "C1": 30, "C2": "3.00", "id": "U2"},
        {"protocl": "TCP", "C1": 5, "C2": "4.50", "id": "U2"},
        {"protocl": "TCP", "C1": 7, "C2": "0.50", "id": "U3"},
        {"protocl": "ICMP", "C1": 99, "C2": "9.99", "id": "U3"},  # singleton group
    ]
    store.append_batch(rows, ticket)
    return QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(b"group-ctx")), table1_schema
    )


class TestGroupedAggregates:
    def test_cross_node_sum(self, executor):
        out = executor.aggregate_grouped("sum", "C2", group_by="protocl")
        assert out["UDP"].value == pytest.approx(6.00)
        assert out["TCP"].value == pytest.approx(5.00)

    def test_same_node_sum(self, executor):
        out = executor.aggregate_grouped("sum", "C1", group_by="protocl")
        assert out["UDP"].value == 60
        assert out["TCP"].value == 12

    def test_count(self, executor):
        out = executor.aggregate_grouped("count", "C1", group_by="protocl")
        assert {k: v.value for k, v in out.items()} == {
            "UDP": 3, "TCP": 2, "ICMP": 1,
        }

    def test_max_min(self, executor):
        maxes = executor.aggregate_grouped("max", "C1", group_by="protocl")
        mins = executor.aggregate_grouped("min", "C1", group_by="protocl")
        assert maxes["UDP"].value == 30 and mins["UDP"].value == 10

    def test_small_group_suppression(self, executor):
        """k-anonymity style: groups below min size never appear."""
        out = executor.aggregate_grouped(
            "sum", "C1", group_by="protocl", min_group_size=2
        )
        assert "ICMP" not in out
        assert set(out) == {"UDP", "TCP"}

    def test_criterion_prefilter(self, executor):
        out = executor.aggregate_grouped(
            "sum", "C1", group_by="protocl", criterion="C1 >= 10"
        )
        assert out["TCP" if "TCP" in out else "UDP"]  # UDP only has all >= 10
        assert out["UDP"].value == 60
        assert "TCP" not in out or out["TCP"].value == 0  # TCP rows are 5,7

    def test_group_by_identity(self, executor):
        """Group attribute on P1, measure on P3 (other direction)."""
        out = executor.aggregate_grouped("sum", "C1", group_by="id")
        assert out["U1"].value == 30
        assert out["U2"].value == 35
        assert out["U3"].value == 106

    def test_membership_leak_recorded_cross_node(self, executor):
        executor.aggregate_grouped("sum", "C2", group_by="protocl")
        assert "group_membership" in executor.ctx.leakage.categories()

    def test_invalid_op(self, executor):
        with pytest.raises(AuditError):
            executor.aggregate_grouped("avg", "C1", group_by="protocl")

    def test_invalid_min_size(self, executor):
        with pytest.raises(AuditError):
            executor.aggregate_grouped(
                "sum", "C1", group_by="protocl", min_group_size=0
            )

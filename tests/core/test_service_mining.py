"""Service-level tests for the mining and grouped-aggregate surface."""

import pytest

from repro.core import ApplicationNode, ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema


@pytest.fixture(scope="module")
def service():
    schema = paper_table1_schema()
    svc = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"svc-mining"),
    )
    node = ApplicationNode.register("U1", svc)
    rows = (
        [{"protocl": "UDP", "C3": "order", "C1": 10}] * 5
        + [{"protocl": "TCP", "C3": "probe", "C1": 90}] * 4
        + [{"protocl": "UDP", "C3": "probe", "C1": 91}] * 1
    )
    for row in rows:
        node.log_values(row)
    return svc


class TestServiceMining:
    def test_mine_associations(self, service):
        rules = service.mine_associations("protocl", "C3", min_support=4)
        found = {(r.value_a, r.value_b): r.support for r in rules}
        assert found == {("UDP", "order"): 5, ("TCP", "probe"): 4}

    def test_min_confidence(self, service):
        rules = service.mine_associations(
            "protocl", "C3", min_support=1, min_confidence=0.9
        )
        assert all(r.confidence >= 0.9 for r in rules)

    def test_grouped_aggregates_via_executor(self, service):
        with service._query_scope() as scope:
            out = scope.executor.aggregate_grouped(
                "sum", "C1", group_by="protocl", net=scope.net
            )
        assert out["UDP"].value == 5 * 10 + 91
        assert out["TCP"].value == 4 * 90

    def test_mining_leakage_recorded(self, service):
        service.mine_associations("protocl", "C3", min_support=4)
        assert "group_sizes" in service.ctx.leakage.categories()

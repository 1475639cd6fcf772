"""Scale sanity: correctness holds on larger stores and wider clusters."""

import pytest

from repro.audit.executor import QueryExecutor
from repro.baseline.centralized import CentralizedAuditor
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.logstore import (
    Attribute,
    AttributeKind,
    DistributedLogStore,
    GlobalSchema,
    LogRecord,
    round_robin_plan,
)
from repro.logstore.integrity import IntegrityChecker
from repro.smc.base import SmcContext
from repro.workloads import WorkloadGenerator


def _rows(schema: GlobalSchema, count: int, rng: DeterministicRng) -> list[dict]:
    """Random records, each attribute dropped with probability 0.1."""
    values = {
        AttributeKind.INTEGER: lambda: rng.randint(0, 999),
        AttributeKind.UNDEFINED: lambda: rng.randint(0, 99),
        AttributeKind.TEXT: lambda: f"v{rng.randint(0, 9)}",
    }
    rows = (
        {a.name: values[a.kind]() for a in schema if rng.random() >= 0.1}
        for _ in range(count)
    )
    return [row for row in rows if row]


@pytest.fixture(scope="module")
def big_world(prime64):
    generator = WorkloadGenerator(seed=99)
    kinds = [AttributeKind.INTEGER, AttributeKind.TEXT]
    schema = GlobalSchema(
        [Attribute(f"a{i}", kinds[i % 2]) for i in range(6)]
        + [Attribute(f"C{i + 1}", AttributeKind.UNDEFINED) for i in range(6)]
    )
    plan = round_robin_plan(schema, [f"P{i}" for i in range(8)])
    authority = TicketAuthority(b"scale-test-master-secret-32b!!!!")
    store = DistributedLogStore(
        plan, authority, AccumulatorParams.generate(128, DeterministicRng(b"sc"))
    )
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    rows = _rows(schema, 400, DeterministicRng(b"scale-rows"))
    receipts = store.append_batch(rows, ticket)
    oracle = CentralizedAuditor(schema)
    for receipt, row in zip(receipts, rows):
        oracle.ingest(LogRecord(receipt.glsn, row))
    executor = QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(b"sc-ctx")), schema
    )
    return schema, plan, store, executor, oracle, generator


class TestScale:
    def test_400_records_8_nodes_queries_match_oracle(self, big_world):
        schema, plan, _, executor, oracle, generator = big_world
        for _ in range(8):
            criterion = generator.criterion_mix(
                schema, plan, clauses=2, cross_fraction=0.5
            )
            assert executor.execute(criterion).glsns == oracle.execute(criterion), (
                criterion
            )

    def test_integrity_all_records(self, big_world):
        _, _, store, _, _, _ = big_world
        reports = IntegrityChecker(store).check_all()
        assert len(reports) == 400
        assert all(r.ok for r in reports)

    def test_aggregates_match_oracle(self, big_world):
        _, _, _, executor, oracle, _ = big_world
        assert executor.aggregate("sum", "a0").value == oracle.aggregate("sum", "a0")
        assert (
            executor.aggregate("count", "C1").value
            == oracle.aggregate("count", "C1")
        )
        assert executor.aggregate("max", "a2").value == pytest.approx(
            oracle.aggregate("max", "a2")
        )

    def test_no_node_ever_full_record(self, big_world):
        _, plan, store, _, _, _ = big_world
        for node_id in plan.node_ids:
            node = store.node_store(node_id)
            supported = set(plan.assignment[node_id])
            for fragment in node.scan():
                assert set(fragment.values) <= supported

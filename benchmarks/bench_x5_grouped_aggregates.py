"""Experiment X5: confidential GROUP BY with small-group suppression.

Extends ref [7]'s secret counting: per-group statistics across two DLA
nodes where groups below ``min_group_size`` are suppressed entirely
(k-anonymity style).  Measures cost vs group count and validates the
suppression guarantee.
"""

import pytest

from benchmarks.conftest import print_rows
from repro.audit.executor import QueryExecutor
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.logstore import DistributedLogStore
from repro.smc.base import SmcContext


def build_executor(plan, schema, prime64, groups: int, records: int, seed: bytes):
    rng = DeterministicRng(seed)
    authority = TicketAuthority(b"x5-bench-master-secret-32bytes!!")
    store = DistributedLogStore(
        plan, authority, AccumulatorParams.generate(128, rng)
    )
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    rows = []
    for i in range(records):
        rows.append({
            "id": f"user-{i % groups}",          # group attr on P1
            "C1": rng.randint(1, 100),           # measure on P3
        })
    # One singleton group that must be suppressible.
    rows.append({"id": "loner", "C1": 999})
    store.append_batch(rows, ticket)
    return QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(seed + b"-ctx")), schema
    )


class TestGroupedAggregates:
    @pytest.mark.parametrize("groups", [2, 8, 32])
    def test_bench_vs_group_count(self, benchmark, plan, schema, prime64, groups):
        executor = build_executor(
            plan, schema, prime64, groups, 128, f"x5-{groups}".encode()
        )
        out = benchmark(
            executor.aggregate_grouped, "sum", "C1", "id", None, 2
        )
        assert len(out) == groups  # the loner is suppressed

    def test_suppression_report(self, benchmark, plan, schema, prime64):
        executor = build_executor(plan, schema, prime64, 4, 64, b"x5r")

        def run():
            visible = executor.aggregate_grouped(
                "count", "C1", group_by="id", min_group_size=2
            )
            unsuppressed = executor.aggregate_grouped(
                "count", "C1", group_by="id", min_group_size=1
            )
            return visible, unsuppressed

        visible, unsuppressed = benchmark(run)
        table = [
            (group, result.value, "visible" if group in visible else "SUPPRESSED")
            for group, result in sorted(unsuppressed.items())
        ]
        print_rows(
            "X5: grouped counts with k=2 suppression",
            ["group", "members", "k=2 status"],
            table,
        )
        assert "loner" in unsuppressed and "loner" not in visible
        assert all(result.value >= 2 for result in visible.values())

"""Experiment X2: §4.1 accumulator-based integrity cross-checking.

Measures the ring protocol's cost (O(n) messages per glsn), the per-record
verification throughput, and the detector's completeness against injected
tampering (every single-fragment mutation must be caught).
"""

import pytest

from benchmarks.conftest import print_rows
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.logstore import (
    DistributedLogStore,
    IntegrityChecker,
    round_robin_plan,
    run_integrity_round,
)
from repro.net.simnet import SimNetwork
from repro.workloads import EcommerceWorkload


def build(plan_obj, records=20, seed=b"x2"):
    authority = TicketAuthority(b"x2-bench-master-secret-32-bytes!")
    store = DistributedLogStore(
        plan_obj, authority, AccumulatorParams.generate(128, DeterministicRng(seed))
    )
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    store.append_batch(EcommerceWorkload(seed=5).flat_rows(records // 2), ticket)
    return store


class TestIntegrityChecking:
    def test_bench_in_process_check(self, benchmark, plan):
        store = build(plan)
        checker = IntegrityChecker(store)
        reports = benchmark(checker.check_all)
        assert all(r.ok for r in reports)

    def test_bench_ring_protocol(self, benchmark, plan):
        store = build(plan)
        reports = benchmark(run_integrity_round, store)
        assert all(r.ok for r in reports)

    @pytest.mark.parametrize("nodes", [2, 4, 8])
    def test_bench_vs_cluster_size(self, benchmark, schema, nodes):
        plan_obj = round_robin_plan(schema, [f"P{i}" for i in range(nodes)])
        store = build(plan_obj, seed=f"x2-{nodes}".encode())
        glsns = store.glsns[:5]
        reports = benchmark(run_integrity_round, store, glsns)
        assert all(r.ok for r in reports)

    def test_message_cost_report(self, benchmark, schema):
        """One check is exactly n messages ((n-1) passes + 1 done)."""

        def sweep():
            table = []
            for nodes in (2, 4, 8, 16):
                plan_obj = round_robin_plan(schema, [f"P{i}" for i in range(nodes)])
                store = build(plan_obj, records=2, seed=f"x2m-{nodes}".encode())
                net = SimNetwork()
                run_integrity_round(store, glsns=store.glsns[:1], net=net)
                table.append((nodes, net.stats.messages, net.stats.bytes))
            return table

        table = benchmark(sweep)
        print_rows(
            "X2: integrity-check traffic vs cluster size (per glsn)",
            ["nodes", "messages", "bytes"],
            table,
        )
        assert all(messages == nodes for nodes, messages, _ in table)

    def test_detection_completeness_report(self, benchmark, plan):
        """Tamper every (node, record) pair in turn: detection must be 100%,
        with zero false positives on untouched records."""

        def campaign():
            detected = 0
            false_positives = 0
            trials = 0
            for node_id in plan.node_ids:
                store = build(plan, seed=f"x2d-{node_id}".encode())
                target = store.glsns[3]
                attr = plan.assignment[node_id][0]
                store.node_store(node_id).tamper(target, attr, "TAMPERED")
                for report in IntegrityChecker(store).check_all():
                    if report.glsn == target:
                        detected += not report.ok
                        trials += 1
                    else:
                        false_positives += not report.ok
            return detected, trials, false_positives

        detected, trials, false_positives = benchmark(campaign)
        print(f"\nX2: tamper detection {detected}/{trials}, "
              f"false positives {false_positives}")
        assert detected == trials == len(plan.node_ids)
        assert false_positives == 0

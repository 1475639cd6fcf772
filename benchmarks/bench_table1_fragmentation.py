"""Experiment T1-T5: Table 1 regeneration and fragmentation throughput.

Regenerates the paper's Table 1 (global event log) and Tables 2-5 (the
per-node fragments) byte-for-byte, then measures the write path: records
fragmented and stored per second, swept over DLA cluster size.
"""

import pytest

from benchmarks.conftest import print_rows
from repro.crypto import AccumulatorParams, DeterministicRng, Operation, TicketAuthority
from repro.logstore import (
    DistributedLogStore,
    LogRecord,
    paper_fragment_plan,
    render_table,
    round_robin_plan,
)
from repro.workloads import EcommerceWorkload, paper_table1_rows

TABLE1_COLUMNS = ["Time", "id", "protocl", "Tid", "C1", "C2", "C3"]


def build_store(plan_obj):
    authority = TicketAuthority(b"t1-bench-master-secret-32-bytes!")
    store = DistributedLogStore(
        plan_obj, authority, AccumulatorParams.generate(128, DeterministicRng(b"t1"))
    )
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    return store, ticket


class TestTable1Regeneration:
    def test_regenerate_tables_1_to_5(self, benchmark, schema, plan):
        def load():
            store, ticket = build_store(plan)
            return store, store.append_batch(paper_table1_rows(), ticket)

        store, receipts = benchmark(load)
        records = [
            LogRecord(r.glsn, row)
            for r, row in zip(receipts, paper_table1_rows())
        ]
        print("\n--- Table 1 (global event log) ---")
        print(render_table(records, TABLE1_COLUMNS))
        for node_id in plan.node_ids:
            attrs = plan.assignment[node_id]
            frag_records = [
                LogRecord(r.glsn, store.node_store(node_id).local_fragment(r.glsn).values)
                for r in receipts
            ]
            print(f"\n--- Table {2 + plan.node_ids.index(node_id)} "
                  f"(fragments at {node_id}) ---")
            print(render_table(frag_records, attrs))
        # Shape assertions: fragments match the paper's assignment exactly.
        frag = store.node_store("P2").local_fragment(receipts[0].glsn)
        assert frag.values == {"Tid": "T1100265", "C3": "signature"}

    def test_bench_fragment_write_path(self, benchmark, plan):
        rows = EcommerceWorkload(seed=2).flat_rows(25)

        def write_batch():
            store, ticket = build_store(plan)
            store.append_batch(rows, ticket)
            return store

        store = benchmark(write_batch)
        assert len(store.glsns) == 50


class TestClusterSizeSweep:
    @pytest.mark.parametrize("nodes", [2, 4, 8])
    def test_bench_write_vs_cluster_size(self, benchmark, schema, nodes):
        plan_obj = round_robin_plan(schema, [f"P{i}" for i in range(nodes)])
        rows = EcommerceWorkload(seed=3).flat_rows(10)

        def write_batch():
            store, ticket = build_store(plan_obj)
            store.append_batch(rows, ticket)
            return store

        store = benchmark(write_batch)
        assert len(store.glsns) == 20

    def test_storage_blowup_report(self, benchmark, schema):
        """Report fragment-count per record vs cluster size (linear)."""
        rows = EcommerceWorkload(seed=4).flat_rows(5)

        def sweep():
            table = []
            for nodes in (1, 2, 4, 8):
                plan_obj = round_robin_plan(schema, [f"P{i}" for i in range(nodes)])
                store, ticket = build_store(plan_obj)
                store.append_batch(rows, ticket)
                fragments = sum(len(store.node_store(n)) for n in plan_obj.node_ids)
                table.append((nodes, len(store.glsns), fragments))
            return table

        table = benchmark(sweep)
        print_rows(
            "T1-T5: fragments stored vs cluster size",
            ["nodes", "records", "fragments"],
            table,
        )
        # Every node holds one fragment per record: fragments = nodes × records.
        assert all(frags == nodes * recs for nodes, recs, frags in table)

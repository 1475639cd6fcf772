"""Experiment X6: durable checkpoint + recovery cost and the recovery audit.

Operational requirement for a real DLA node: state survives restarts, and
the first thing a restarted cluster does is re-verify its integrity
anchors.  Measures ``checkpoint()`` / ``recover_store`` cost vs record
count, reports the size of ``checkpoint.seg``, and asserts the recovery
audit passes (and still catches tampering from before the checkpoint).
"""

import pytest

from benchmarks.conftest import print_rows
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.store import StoreConfig, open_durable_store, recover_store
from repro.workloads import EcommerceWorkload

CONFIG = StoreConfig(fsync="off", compact=False)


def build(plan, records: int, seed: bytes, directory):
    authority = TicketAuthority(b"x6-bench-master-secret-32bytes!!")
    store, _ = open_durable_store(
        plan, authority, AccumulatorParams.generate(128, DeterministicRng(seed)),
        directory, config=CONFIG,
    )
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    store.append_batch(EcommerceWorkload(seed=3).flat_rows(records // 2), ticket)
    return store, authority


def recover(authority, directory, integrity_audit=False):
    store, report = recover_store(
        authority, directory, config=CONFIG, integrity_audit=integrity_audit
    )
    store.close()
    return store, report


class TestPersistence:
    @pytest.mark.parametrize("records", [20, 100])
    def test_bench_checkpoint(self, benchmark, plan, records, tmp_path):
        store, _ = build(plan, records, f"x6s{records}".encode(), tmp_path)
        path = benchmark(store.checkpoint)
        store.close()
        assert path.stat().st_size > 0

    @pytest.mark.parametrize("records", [20, 100])
    def test_bench_recover(self, benchmark, plan, records, tmp_path):
        store, authority = build(plan, records, f"x6r{records}".encode(), tmp_path)
        store.checkpoint()
        store.close()
        restored, _ = benchmark(recover, authority, tmp_path)
        assert restored.glsns == store.glsns

    def test_bench_recovery_audit(self, benchmark, plan, tmp_path):
        store, authority = build(plan, 100, b"x6a", tmp_path)
        glsn = store.glsns[3]
        store.node_store("P1").tamper(glsn, "C2", "forged")
        store.checkpoint()
        store.close()
        _, report = benchmark(recover, authority, tmp_path, True)
        assert report.audit_failures == [glsn]

    def test_size_report(self, benchmark, plan, tmp_path):
        def sweep():
            table = []
            for records in (20, 100, 200):
                store, _ = build(plan, records, f"x6z{records}".encode(), tmp_path / str(records))
                size = store.checkpoint().stat().st_size
                store.close()
                table.append((records, size, size // max(records, 1)))
            return table

        table = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print_rows(
            "X6: checkpoint.seg size vs record count",
            ["records", "checkpoint bytes", "bytes/record"],
            table,
        )
        # Linear growth: bytes/record roughly constant.
        per_record = [row[2] for row in table]
        assert max(per_record) < 2 * min(per_record)

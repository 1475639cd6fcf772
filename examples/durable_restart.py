"""Durable storage: crash a service mid-write, recover, re-verify.

The append path journals every mutation to per-node write-ahead logs
before acknowledging (``repro.store``).  This example streams records
into a durable service, kills it without a clean shutdown — including
tearing the tail off one node's WAL, as a real power cut would — then
reopens the same directory.  Recovery replays the journals, rolls the
torn append back on *every* node (vertical fragmentation means a record
is only real if all nodes hold their fragment), and re-verifies the §4.1 integrity anchors before serving reads.

Run:  python examples/durable_restart.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.workloads import paper_table1_rows

CRITERION = "id = 'U1'"


def build_service(store_dir: str) -> ConfidentialAuditingService:
    schema = paper_table1_schema()
    # Same seed on every start: the restarted service derives the same
    # ticket-authority secret, so tickets issued before the crash verify.
    return ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"durable-example"), store_dir=store_dir,
    )


def rows():
    for i, row in enumerate(paper_table1_rows() * 4):
        yield {**row, "Tid": f"T{i:07d}"}


def kill(service: ConfidentialAuditingService) -> None:
    """Die without checkpointing: drop WAL handles, skip the clean close."""
    store = service.store
    if store.compactor is not None:
        store.compactor.stop()
        store.compactor = None
    for wal in store.wals.values():
        wal.close()
    store._closed = True
    service.close()  # scheduler/observatory down; store already "dead"


def main() -> None:
    store_dir = tempfile.mkdtemp(prefix="repro-durable-")
    try:
        print(f"--- start a durable service at {store_dir} ---")
        service = build_service(store_dir)
        ticket = service.register_user("U9")
        receipts = service.append_stream(rows(), ticket, batch_size=8)
        before = sorted(service.query(CRITERION).glsns)
        print(f"  streamed {len(receipts)} records; query {CRITERION!r} "
              f"matches {len(before)} glsns")

        print("\n--- crash: no checkpoint, and P1's WAL tail is torn ---")
        kill(service)
        segment = sorted((Path(store_dir) / "P1").glob("wal-*.seg"))[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-40])  # a power cut mid-record
        print(f"  truncated {segment.name} by 40 bytes on node P1")

        print("\n--- restart: recovery replays the journals ---")
        service = build_service(store_dir)
        report = service.last_recovery
        assert report is not None
        print(f"  checkpoint loaded: {report.checkpoint_loaded}")
        print(f"  WAL records replayed: {report.wal_records}")
        print(f"  torn nodes: {sorted(report.torn_nodes)}")
        print(f"  rolled back (incomplete on some node): "
              f"{[format(g, 'x') for g in report.rolled_back]}")
        print(f"  integrity audit clean: {report.audit_ok}")
        print(f"  recovered in {report.duration_seconds * 1000:.1f} ms")
        assert report.audit_ok

        print("\n--- the surviving prefix answers identically ---")
        ticket = service.register_user("U9")
        after = sorted(service.query(CRITERION).glsns)
        lost = [g for g in before if g not in after]
        assert set(after) <= set(before)
        assert all(g in report.rolled_back for g in lost)
        print(f"  query {CRITERION!r} now matches {len(after)} glsns "
              f"({len(lost)} lost to the torn tail, all accounted for)")
        for receipt in receipts:
            if receipt.glsn in service.store.glsns:
                service.store.read_record(receipt.glsn, ticket)
        print("  every surviving record read back and verified")
        service.close()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

"""Experiment P8: durable storage — sustained ingest and crash recovery.

The durable backend (``repro.store``) must earn its keep on two axes:

* **Sustained ingest throughput.**  Rows are streamed into a
  ``DurableDistributedLogStore`` through the batched write path
  (``append_batch``: one WAL write per node and one WAL sync per batch)
  under each of the three fsync policies (``off``/``batch``/``always``), and
  the §4.1 integrity audit is asserted clean *after* every ladder rung —
  throughput only counts if the accumulators and hash chain stayed
  current while the journal kept up.  The headline is rows/s under the
  default ``batch`` policy.
* **Bounded crash recovery.**  The ``batch``-policy store is then killed
  without a checkpoint (WAL file handles dropped, no clean close), so
  recovery must replay every journaled mutation from the segments.
  Recovery wall time is *asserted* below ``REPRO_BENCH_MAX_RECOVERY_S``
  and the recovered store must answer byte-identically over the full
  pre-crash log and pass the post-recovery integrity audit.
* **Streaming ingest with a standing query** (informational).  A full
  ``ConfidentialAuditingService`` over a durable store ingests the same
  rows via ``append_stream`` with one standing query registered, showing
  the per-epoch delta-evaluation cost riding on top of raw ingest.

Writes ``BENCH_p8.json`` at the repo root.

Environment knobs (for CI smoke runs on tiny machines):

- ``REPRO_BENCH_ROWS``            rows ingested per rung    (default 240)
- ``REPRO_BENCH_MAX_RECOVERY_S``  recovery bound asserted   (default 30.0)
- ``REPRO_BENCH_STREAM_ROWS``     service streaming rows    (default 60)

Run directly with ``python benchmarks/bench_p8_durability.py [--smoke]``;
``--smoke`` applies tiny-machine knobs (fewer rows, relaxed bound).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # direct execution: make repo-root imports work
    for _extra in (str(_ROOT), str(_ROOT / "src")):
        if _extra not in sys.path:
            sys.path.insert(0, _extra)

from benchmarks.conftest import print_rows
from repro.core import ConfidentialAuditingService
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.logstore.integrity import IntegrityChecker
from repro.store import StoreConfig, open_durable_store
from repro.workloads import paper_table1_rows

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "240"))
MAX_RECOVERY_S = float(os.environ.get("REPRO_BENCH_MAX_RECOVERY_S", "30.0"))
STREAM_ROWS = int(os.environ.get("REPRO_BENCH_STREAM_ROWS", "60"))
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_p8.json"

BATCH_SIZE = 16
FSYNC_LADDER = ["off", "batch", "always"]


def _rows(count: int) -> list[dict]:
    base = paper_table1_rows()
    out = []
    for i in range(count):
        row = dict(base[i % len(base)])
        row["Tid"] = f"T{i:07d}"  # unique transaction id per record
        out.append(row)
    return out


def _build(directory: Path, policy: str):
    schema = paper_table1_schema()
    authority = TicketAuthority(b"p8-bench-master-secret-0123456789")
    params = AccumulatorParams.generate(128, DeterministicRng(b"p8-acc"))
    config = StoreConfig(fsync=policy, compact=False)
    store, report = open_durable_store(
        paper_fragment_plan(schema), authority, params, directory, config=config
    )
    assert report is None, "fresh directory must not trigger recovery"
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    return store, authority, params, ticket


def _ingest(store, ticket, rows: list[dict]) -> dict:
    """Stream ``rows`` through the batched write path; return the rung."""
    start = time.perf_counter()
    receipts = []
    for lo in range(0, len(rows), BATCH_SIZE):
        receipts.extend(store.append_batch(rows[lo : lo + BATCH_SIZE], ticket))
    elapsed = time.perf_counter() - start
    # Integrity must be *current* at full ingest speed: every fragment
    # verifies against its accumulator anchor right now, not eventually.
    reports = IntegrityChecker(store).check_all()
    assert all(r.ok for r in reports), "integrity audit failed after ingest"
    wal_records = sum(w.records_appended for w in store.wals.values())
    return {
        "rows": len(rows),
        "seconds": round(elapsed, 3),
        "rows_per_s": round(len(rows) / elapsed, 1),
        "wal_records": wal_records,
        "integrity_ok": True,
        "receipts": receipts,
    }


def _crash(store) -> None:
    """Drop the store without checkpointing: handles closed, WALs kept."""
    if store.compactor is not None:
        store.compactor.stop()
        store.compactor = None
    for wal in store.wals.values():
        wal.close()
    store._closed = True


class TestDurability:
    def test_ingest_recovery_and_streaming(self):
        results: dict = {
            "experiment": "P8",
            "rows": ROWS,
            "batch_size": BATCH_SIZE,
            "max_recovery_s_asserted": MAX_RECOVERY_S,
        }
        rows = _rows(ROWS)

        # -- fsync ladder: rows/s per policy, integrity current ------------
        ladder: list[dict] = []
        table = []
        for policy in FSYNC_LADDER:
            with tempfile.TemporaryDirectory(prefix=f"p8-{policy}-") as tmp:
                store, _, _, ticket = _build(Path(tmp), policy)
                rung = _ingest(store, ticket, rows)
                rung.pop("receipts")
                rung["fsync"] = policy
                ladder.append(rung)
                table.append(
                    (policy, f"{rung['rows']}", f"{rung['seconds']:.2f}",
                     f"{rung['rows_per_s']:.0f}", f"{rung['wal_records']}")
                )
                store.close()
        results["fsync_ladder"] = ladder
        batch_rung = next(r for r in ladder if r["fsync"] == "batch")
        results["ingest"] = {
            "fsync": "batch",
            "rows_per_s": batch_rung["rows_per_s"],
            "integrity_current": True,
        }
        print_rows(
            f"P8: batched ingest of {ROWS} rows (batch={BATCH_SIZE}), "
            f"integrity audited clean after every rung",
            ["fsync", "rows", "seconds", "rows/s", "wal records"],
            table,
        )

        # -- crash recovery: full WAL replay, bounded and byte-identical ---
        with tempfile.TemporaryDirectory(prefix="p8-recover-") as tmp:
            directory = Path(tmp)
            store, authority, params, ticket = _build(directory, "batch")
            rung = _ingest(store, ticket, rows)
            receipts = rung.pop("receipts")
            expected_glsns = store.glsns
            _crash(store)

            start = time.perf_counter()
            recovered, report = open_durable_store(
                paper_fragment_plan(paper_table1_schema()),
                authority,
                params,
                directory,
                config=StoreConfig(fsync="batch", compact=False),
            )
            recovery_wall = time.perf_counter() - start
            assert report is not None and report.audit_ok
            assert recovered.glsns == expected_glsns
            # Byte-identical answers over the full pre-crash log.
            for receipt, row in zip(receipts, rows):
                assert recovered.read_record(receipt.glsn, ticket).values == row
            assert recovery_wall <= MAX_RECOVERY_S, (
                f"recovery took {recovery_wall:.2f}s, bound is {MAX_RECOVERY_S}s"
            )
            results["recovery"] = {
                "seconds": round(recovery_wall, 3),
                "reported_seconds": round(report.duration_seconds, 3),
                "wal_records_replayed": report.wal_records,
                "rows_recovered": len(recovered.glsns),
                "rows_per_s": round(len(recovered.glsns) / recovery_wall, 1),
                "audit_ok": report.audit_ok,
                "rolled_back": list(report.rolled_back),
            }
            recovered.close()
        print_rows(
            f"P8: crash recovery (no checkpoint, full WAL replay; "
            f"bound {MAX_RECOVERY_S:.0f}s asserted)",
            ["rows", "wal records", "seconds", "rows/s", "audit"],
            [(
                f"{results['recovery']['rows_recovered']}",
                f"{results['recovery']['wal_records_replayed']}",
                f"{results['recovery']['seconds']:.2f}",
                f"{results['recovery']['rows_per_s']:.0f}",
                "clean",
            )],
        )

        # -- streaming ingest through the service, standing query live -----
        schema = paper_table1_schema()
        with tempfile.TemporaryDirectory(prefix="p8-stream-") as tmp:
            service = ConfidentialAuditingService(
                schema,
                paper_fragment_plan(schema),
                prime_bits=64,
                rng=DeterministicRng(b"p8-stream"),
                store_dir=tmp,
                store_config=StoreConfig(fsync="off", compact=False),
            )
            try:
                ticket = service.register_user("p8-stream")
                deltas: list = []
                service.register_standing_query(
                    "id = 'U1'", tenant="p8-auditor", on_delta=deltas.append
                )
                stream = iter(_rows(STREAM_ROWS))
                start = time.perf_counter()
                service.append_stream(stream, ticket, batch_size=BATCH_SIZE)
                elapsed = time.perf_counter() - start
                matched = sum(len(d.added) for d in deltas)
                results["streaming"] = {
                    "rows": STREAM_ROWS,
                    "seconds": round(elapsed, 3),
                    "rows_per_s": round(STREAM_ROWS / elapsed, 1),
                    "standing_epochs": service.standing.epoch,
                    "deltas_pushed": len(deltas),
                    "glsns_matched": matched,
                }
                assert matched > 0, "standing query never matched a row"
            finally:
                service.close()
        print_rows(
            f"P8: append_stream of {STREAM_ROWS} rows with one standing "
            f"query (per-epoch delta evaluation included)",
            ["rows", "seconds", "rows/s", "epochs", "deltas"],
            [(
                f"{STREAM_ROWS}",
                f"{results['streaming']['seconds']:.2f}",
                f"{results['streaming']['rows_per_s']:.0f}",
                f"{results['streaming']['standing_epochs']}",
                f"{results['streaming']['deltas_pushed']}",
            )],
        )

        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str]) -> int:
    import pytest

    if "--smoke" in argv:
        os.environ.setdefault("REPRO_BENCH_ROWS", "48")
        os.environ.setdefault("REPRO_BENCH_MAX_RECOVERY_S", "60.0")
        os.environ.setdefault("REPRO_BENCH_STREAM_ROWS", "24")
    return pytest.main([__file__, "-q", "-s"])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The batched write path: what a batch checks once, and what a batch
that fails leaves behind.

A ticket is verified once at the cluster entry and once per node per
batch, so a revocation or expiry takes effect at the next batch; each
node writes its share of a batch with one WAL append.  Every row of a
batch is fragmented before any node stores anything, so a row that
fails leaves memory and disk as they were.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.crypto.tickets import TicketAuthority
from repro.errors import TicketError, UnknownAttributeError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.store import StoreConfig, WriteAheadLog
from repro.workloads import paper_table1_rows

from tests.store.conftest import reopen, store_state

CONFIG = StoreConfig(fsync="off", compact=False)


def durable_service(directory: Path) -> ConfidentialAuditingService:
    """A service over the durable store at ``directory`` (fresh or recovered)."""
    schema = paper_table1_schema()
    return ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"batch-write"),
        store_dir=str(directory), store_config=CONFIG,
    )


def rows(count: int) -> list[dict]:
    return [{"id": "U1", "Tid": f"T{i}", "C1": i, "C2": f"{i}.00"} for i in range(count)]


def wal_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.glob("*/wal-*.seg"))
    }


class TestTicketLapse:
    @pytest.mark.parametrize("lapse", ["revoke", "expire"])
    def test_a_lapsed_ticket_stops_the_stream_at_the_next_batch(self, tmp_path, lapse):
        service = durable_service(tmp_path)
        authority = service.ticket_authority
        ticket = service.register_user("U1", lifetime=5)
        at_lapse = []

        def on_delta(_delta) -> None:
            if at_lapse:
                return
            at_lapse.append((store_state(service.store), wal_bytes(tmp_path)))
            if lapse == "revoke":
                authority.revoke(ticket.ticket_id)
            else:
                authority.tick(6)

        service.register_standing_query("id == 'U1'", on_delta=on_delta)
        with pytest.raises(TicketError):
            service.append_stream(rows(12), ticket, batch_size=4)
        state, disk = at_lapse[0]
        # The batch after the lapse changed nothing, in memory or on disk.
        assert store_state(service.store) == state
        assert wal_bytes(tmp_path) == disk
        first_batch = service.store.glsns
        assert len(first_batch) == 4
        service.close()

        reopened = durable_service(tmp_path)
        try:
            report = reopened.last_recovery
            assert report.audit_ok and not report.rolled_back
            assert store_state(reopened.store)["nodes"] == state["nodes"]
            assert reopened.store.glsns == first_batch
        finally:
            reopened.close()


class TestMidBatchFailure:
    def test_a_row_that_fails_fragmentation_leaves_memory_equal_to_disk(
        self, durable_store, table1_plan, ticket_authority, acc_params, fast_config
    ):
        store, ticket, directory = durable_store
        good = paper_table1_rows() * 2
        first = store.append_batch(good[:3], ticket)
        before = store_state(store)
        disk = wal_bytes(directory)
        batch = [dict(row) for row in good[3:8]]
        batch[2]["not-in-the-schema"] = 1
        with pytest.raises(UnknownAttributeError):
            store.append_batch(batch, ticket)
        assert store_state(store)["nodes"] == before["nodes"]
        assert wal_bytes(directory) == disk
        # The glsns allocated to the failed batch are left unused.
        after = store.append_batch(good[:2], ticket)
        assert min(r.glsn for r in after) >= before["next_glsn"] + 3
        live = store_state(store)
        store.close()

        recovered, report = reopen(
            table1_plan, ticket_authority, acc_params, directory, fast_config
        )
        try:
            assert report.audit_ok and not report.rolled_back
            assert store_state(recovered)["nodes"] == live["nodes"]
            assert recovered.glsns == [r.glsn for r in first + after]
        finally:
            recovered.close()


class TestOncePerBatch:
    def test_one_ticket_check_and_one_wal_write_per_node_per_batch(
        self, tmp_path, monkeypatch
    ):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        service = durable_service(tmp_path)
        try:
            ticket = service.register_user("U1")
            monkeypatch.setattr(
                TicketAuthority, "verify", counted("verify", TicketAuthority.verify)
            )
            monkeypatch.setattr(
                WriteAheadLog, "append", counted("wal", WriteAheadLog.append)
            )
            batches, nodes = 3, len(service.plan.node_ids)
            receipts = service.append_stream(rows(64 * batches), ticket, batch_size=64)
            assert len(receipts) == 64 * batches
            # Once at the cluster entry, once per node; one WAL write per node.
            assert calls == {"verify": batches * (1 + nodes), "wal": batches * nodes}
        finally:
            service.close()

    def test_a_single_append_is_a_one_row_batch(self, durable_store):
        store, ticket, _ = durable_store
        store.append_batch(paper_table1_rows()[:2], ticket)
        receipt = store.append(paper_table1_rows()[2], ticket)
        for wal in store.wals.values():
            assert wal.append_seconds.count == 2
            assert [e["glsn"] for e in wal.replay().entries][-1] == receipt.glsn

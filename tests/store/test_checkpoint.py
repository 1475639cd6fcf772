"""Checkpoint + recover: ``checkpoint.seg`` alone carries a store's state.

Each round trip checkpoints a durable store, closes it and recovers the
directory.  The WALs are empty after a checkpoint, so everything the
recovered store holds was read back from the checkpoint, and
:func:`~tests.store.conftest.store_state` is the equality oracle.
"""

import os
from pathlib import Path

import pytest

from repro import ConfidentialAuditingService
from repro.crypto import DeterministicRng, Operation
from repro.errors import AccessDeniedError, LogStoreError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.logstore.integrity import IntegrityChecker
from repro.store import CHECKPOINT_FILE, StoreConfig, open_durable_store
from repro.store.wal import read_records
from repro.workloads import paper_table1_rows

from tests.store.conftest import reopen, store_state


@pytest.fixture()
def populated(durable_store):
    """The paper's Table 1 rows in a durable store; ``(store, ticket, receipts)``."""
    store, ticket, _ = durable_store
    return store, ticket, store.append_batch(paper_table1_rows(), ticket)


class TestCheckpointReopen:
    def test_roundtrip_preserves_records(self, populated, round_trip):
        store, ticket, receipts = populated
        expected = store_state(store)
        restored, report = round_trip(store)
        assert report.checkpoint_loaded and report.wal_records == 0
        assert store_state(restored) == expected
        for receipt, row in zip(receipts, paper_table1_rows()):
            assert restored.read_record(receipt.glsn, ticket).values == row

    def test_integrity_anchors_survive(self, populated, round_trip):
        store, _, _ = populated
        restored, report = round_trip(store)
        assert report.audit_ok
        assert all(r.ok for r in IntegrityChecker(restored).check_all())

    def test_tamper_detectable_after_restore(self, populated, round_trip):
        store, _, receipts = populated
        restored, _ = round_trip(store)
        restored.node_store("P1").tamper(receipts[0].glsn, "C2", "evil")
        bad = [r for r in IntegrityChecker(restored).check_all() if not r.ok]
        assert [r.glsn for r in bad] == [receipts[0].glsn]

    def test_tamper_before_the_checkpoint_is_still_detected(self, populated, round_trip):
        store, _, receipts = populated
        store.node_store("P2").tamper(receipts[2].glsn, "C3", "forged")
        expected = store_state(store)
        restored, report = round_trip(store)
        assert store_state(restored) == expected
        assert report.audit_ok is False
        assert report.audit_failures == [receipts[2].glsn]

    def test_acl_survives(self, populated, round_trip, ticket_authority):
        store, ticket, receipts = populated
        restored, _ = round_trip(store)
        acl = restored.node_store("P0").acl
        assert acl.glsns_for(ticket.ticket_id) == {r.glsn for r in receipts}
        stranger = ticket_authority.issue("U9", {Operation.READ, Operation.WRITE})
        with pytest.raises(AccessDeniedError):
            restored.read_record(receipts[0].glsn, stranger)

    def test_allocator_resumes_past_existing(self, populated, round_trip):
        store, ticket, receipts = populated
        restored, _ = round_trip(store)
        new_receipt = restored.append({"Tid": "post-restore"}, ticket)
        assert new_receipt.glsn > max(r.glsn for r in receipts)

    def test_file_roundtrip(self, populated):
        """The file at the store root is a header, then one record per node."""
        store, _, receipts = populated
        path = store.checkpoint()
        assert path == store.directory / CHECKPOINT_FILE
        records = list(read_records(path.read_bytes(), path.name))
        assert [r["op"] for r in records] == ["header"] + ["node"] * len(store.stores)
        assert records[0]["next_glsn"] == store.allocator.next_value
        assert records[0]["n"] == store.accumulator.params.n
        for record in records[1:]:
            node = store.node_store(record["node"])
            assert record["glsns"] == [r.glsn for r in receipts]
            assert record["anchors"] == [r.accumulator for r in receipts]
            assert record["values"] == [node.local_fragment(g).values for g in node.glsns]

    def test_bytes_values_roundtrip(self, durable_store, round_trip):
        store, ticket, _ = durable_store
        receipt = store.append({"C3": b"\x00\xffraw", "C4": "\x00\xffraw"}, ticket)
        expected = store_state(store)
        restored, _ = round_trip(store)
        assert store_state(restored) == expected
        values = restored.read_record(receipt.glsn, ticket).values
        assert values == {"C3": b"\x00\xffraw", "C4": "\x00\xffraw"}

    def test_eviction_round_trip_preserves_state(self, populated, round_trip):
        # Every node loses the same record (the ``evict`` fault hook); the
        # ACL grant of the evicted glsn stays behind, inert.
        store, ticket, receipts = populated
        evicted = receipts[1].glsn
        for node_id in store.plan.node_ids:
            store.node_store(node_id).evict(evicted)
        expected = store_state(store)
        restored, report = round_trip(store)
        assert store_state(restored) == expected
        assert evicted not in restored.glsns
        assert evicted in restored.node_store("P0").acl.glsns_for(ticket.ticket_id)
        assert report.audit_ok

    def test_ticket_entry_emptied_by_deletes_survives(self, populated, round_trip):
        store, ticket, receipts = populated
        for receipt in receipts:
            store.delete_record(receipt.glsn, ticket)
        expected = store_state(store)
        restored, _ = round_trip(store)
        assert store_state(restored) == expected
        assert ticket.ticket_id in restored.node_store("P1").acl.ticket_ids
        assert restored.glsns == []

    def test_missing_attribute_and_none_value_stay_apart(self, durable_store, round_trip):
        store, ticket, _ = durable_store
        lacking = store.append({"C1": 1}, ticket).glsn
        holding_none = store.append({"C1": 1, "C2": None}, ticket).glsn
        expected = store_state(store)
        restored, _ = round_trip(store)
        assert store_state(restored) == expected
        assert restored.read_record(lacking, ticket).values == {"C1": 1}
        assert restored.read_record(holding_none, ticket).values == {"C1": 1, "C2": None}

    def test_next_glsn_past_a_deleted_tail(self, populated, round_trip):
        store, ticket, receipts = populated
        store.delete_record(receipts[-1].glsn, ticket)
        expected = store_state(store)
        restored, _ = round_trip(store)
        assert store_state(restored) == expected
        assert restored.append({"C1": 0}, ticket).glsn > receipts[-1].glsn

    def test_streamed_ingest_round_trips(self, tmp_path, round_trip):
        """4 608 rows through ``append_stream``, as the ingest benchmark does."""
        schema = paper_table1_schema()
        service = ConfidentialAuditingService(
            schema, paper_fragment_plan(schema), prime_bits=64,
            rng=DeterministicRng(b"checkpoint-ingest"), store_dir=str(tmp_path),
            store_config=StoreConfig(fsync="off", compact=False),
        )
        try:
            ticket = service.register_user("U1")
            table = paper_table1_rows()
            rows = ({**table[i % len(table)], "Tid": f"T{i:05d}"} for i in range(4608))
            receipts = service.append_stream(rows, ticket, batch_size=64)
            assert len(receipts) == 4608
            expected = store_state(service.store)
            restored, report = round_trip(service.store)
            assert store_state(restored) == expected
            assert report.audit_ok and report.glsns == 4608
        finally:
            service.close()


class TestDamagedCheckpoint:
    @pytest.mark.parametrize("damage", ["truncated", "bit flipped", "header-less"])
    def test_reopen_raises_a_typed_error(
        self, populated, table1_plan, ticket_authority, acc_params, fast_config, damage
    ):
        store, _, _ = populated
        path = store.checkpoint_path
        store.checkpoint()
        store.close()
        data = path.read_bytes()
        header_end = 8 + int.from_bytes(data[:4], "big")
        if damage == "truncated":
            data = data[:-5]
        elif damage == "bit flipped":
            flipped = header_end + 20
            data = data[:flipped] + bytes([data[flipped] ^ 1]) + data[flipped + 1 :]
        else:
            data = data[header_end:]
        path.write_bytes(data)
        with pytest.raises(LogStoreError, match=rf"{CHECKPOINT_FILE}: .* offset \d+"):
            reopen(table1_plan, ticket_authority, acc_params, path.parent, fast_config)


def test_checkpoint_rename_is_durable_before_the_wal_goes(
    table1_plan, ticket_authority, acc_params, tmp_path, monkeypatch
):
    """A power loss may persist the segment unlinks; the rename must be
    on disk by then, or the old checkpoint is left with no WAL."""
    store, _ = open_durable_store(
        table1_plan, ticket_authority, acc_params, tmp_path,
        config=StoreConfig(fsync="batch", compact=False),
    )
    store.append_batch(paper_table1_rows(), ticket_authority.issue("U1", {Operation.WRITE}))
    calls = []

    def logged(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(os, "fsync", logged("fsync", os.fsync))
    monkeypatch.setattr(os, "replace", logged("replace", os.replace))
    monkeypatch.setattr(Path, "unlink", logged("unlink", Path.unlink))
    store.checkpoint()
    store.close()
    renamed, unlinked = calls.index("replace"), calls.index("unlink")
    assert "fsync" in calls[renamed:unlinked]

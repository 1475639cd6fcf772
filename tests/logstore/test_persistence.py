"""Tests for store snapshot/restore."""

import pytest

from repro.crypto import Operation
from repro.errors import AccessDeniedError, LogStoreError
from repro.logstore.integrity import IntegrityChecker
from repro.logstore.persistence import (
    dump_store,
    load_store,
    restore_store,
    snapshot_store,
)


class TestSnapshotRestore:
    def test_roundtrip_preserves_records(self, populated_store, ticket_authority):
        store, ticket, receipts = populated_store
        snapshot = snapshot_store(store)
        restored = restore_store(snapshot, ticket_authority)
        for receipt in receipts:
            original = store.read_record(receipt.glsn, ticket)
            recovered = restored.read_record(receipt.glsn, ticket)
            assert recovered.values == original.values

    def test_integrity_anchors_survive(self, populated_store, ticket_authority):
        store, _, _ = populated_store
        restored = restore_store(snapshot_store(store), ticket_authority)
        assert all(r.ok for r in IntegrityChecker(restored).check_all())

    def test_tamper_detectable_after_restore(
        self, populated_store, ticket_authority
    ):
        store, _, receipts = populated_store
        restored = restore_store(snapshot_store(store), ticket_authority)
        restored.node_store("P1").tamper(receipts[0].glsn, "C2", "evil")
        bad = [r for r in IntegrityChecker(restored).check_all() if not r.ok]
        assert [r.glsn for r in bad] == [receipts[0].glsn]

    def test_acl_survives(self, populated_store, ticket_authority):
        store, ticket, receipts = populated_store
        restored = restore_store(snapshot_store(store), ticket_authority)
        acl = restored.node_store("P0").acl
        assert acl.glsns_for(ticket.ticket_id) == {r.glsn for r in receipts}
        stranger = ticket_authority.issue("U9", {Operation.READ, Operation.WRITE})
        with pytest.raises(AccessDeniedError):
            restored.read_record(receipts[0].glsn, stranger)

    def test_allocator_resumes_past_existing(
        self, populated_store, ticket_authority
    ):
        store, ticket, receipts = populated_store
        restored = restore_store(snapshot_store(store), ticket_authority)
        new_receipt = restored.append({"Tid": "post-restore"}, ticket)
        assert new_receipt.glsn > max(r.glsn for r in receipts)

    def test_file_roundtrip(self, populated_store, ticket_authority, tmp_path):
        store, ticket, receipts = populated_store
        path = tmp_path / "store.json"
        dump_store(store, str(path))
        restored = load_store(str(path), ticket_authority)
        assert restored.glsns == store.glsns

    def test_bad_format_rejected(self, ticket_authority):
        with pytest.raises(LogStoreError):
            restore_store({"format": 999}, ticket_authority)

    def test_bytes_values_roundtrip(
        self, table1_schema, table1_plan, ticket_authority
    ):
        from repro.crypto import AccumulatorParams, DeterministicRng
        from repro.logstore.store import DistributedLogStore

        store = DistributedLogStore(
            table1_plan,
            ticket_authority,
            AccumulatorParams.generate(128, DeterministicRng(b"pbytes")),
        )
        ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
        receipt = store.append({"C3": b"\x00\xffraw"}, ticket)
        restored = restore_store(snapshot_store(store), ticket_authority)
        assert restored.read_record(receipt.glsn, ticket).values["C3"] == b"\x00\xffraw"

    def test_eviction_round_trip_preserves_state(
        self, populated_store, ticket_authority
    ):
        # Every node loses the same record (the ``evict`` fault hook).
        store, _, receipts = populated_store
        evicted = receipts[1].glsn
        for node_id in store.plan.node_ids:
            store.node_store(node_id).evict(evicted)
        restored = restore_store(snapshot_store(store), ticket_authority)
        assert restored.glsns == store.glsns
        assert evicted not in restored.glsns
        reports = IntegrityChecker(restored).check_all()
        assert reports and all(r.ok for r in reports)

    def test_legacy_chain_fields_are_ignored(
        self, populated_store, ticket_authority
    ):
        """v1 documents and v2 documents that still carry the retired
        combined ring's chain fields load to the same store."""
        store, _, _ = populated_store
        current = snapshot_store(store)
        assert "chain_value" not in current
        legacy = dict(current, chain_value="abc")
        legacy["nodes"] = {
            node_id: dict(body, chain=[[0, "abc"]])
            for node_id, body in current["nodes"].items()
        }
        for document in (dict(current, format=1), legacy):
            restored = restore_store(document, ticket_authority)
            assert snapshot_store(restored) == current

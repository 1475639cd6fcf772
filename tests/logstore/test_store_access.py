"""Tests for fragment stores, the distributed write path, and ACLs."""

import sys
import threading

import pytest

from repro.crypto import AccumulatorParams, DeterministicRng, Operation
from repro.crypto.tickets import TicketAuthority
from repro.errors import (
    AccessDeniedError,
    TicketError,
    UnknownGlsnError,
)
from repro.logstore.access import check_table_consistency
from repro.logstore.store import JOURNAL_BOUND, DistributedLogStore
from repro.smc.base import SmcContext


@pytest.fixture()
def store(table1_plan, ticket_authority):
    return DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"store-tests")),
    )


@pytest.fixture()
def writer(ticket_authority):
    return ticket_authority.issue(
        "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )


ROW = {"Time": "10:00:00", "id": "U1", "Tid": "T1", "C1": 5, "protocl": "UDP"}


class TestWritePath:
    def test_append_fragments_everywhere(self, store, writer):
        receipt = store.append(ROW, writer)
        assert receipt.nodes == ("P0", "P1", "P2", "P3")
        assert store.node_store("P0").local_fragment(receipt.glsn).values == {
            "Time": "10:00:00"
        }
        assert store.node_store("P3").local_fragment(receipt.glsn).values == {
            "protocl": "UDP",
            "C1": 5,
        }

    def test_no_node_holds_full_record(self, store, writer):
        receipt = store.append(ROW, writer)
        for node_id in store.stores:
            values = store.node_store(node_id).local_fragment(receipt.glsn).values
            assert set(values) != set(ROW)

    def test_read_requires_owner_ticket(self, store, writer, ticket_authority):
        receipt = store.append(ROW, writer)
        record = store.read_record(receipt.glsn, writer)
        assert record.values == ROW
        stranger = ticket_authority.issue("U2", {Operation.READ, Operation.WRITE})
        with pytest.raises(AccessDeniedError):
            store.read_record(receipt.glsn, stranger)

    def test_write_requires_write_right(self, store, ticket_authority):
        read_only = ticket_authority.issue("U3", {Operation.READ})
        with pytest.raises(TicketError):
            store.append(ROW, read_only)

    def test_delete(self, store, writer):
        receipt = store.append(ROW, writer)
        store.delete_record(receipt.glsn, writer)
        with pytest.raises(UnknownGlsnError):
            store.node_store("P0").local_fragment(receipt.glsn)

    def test_delete_requires_right(self, store, writer, ticket_authority):
        receipt = store.append(ROW, writer)
        no_delete = ticket_authority.issue("U4", {Operation.READ, Operation.WRITE})
        with pytest.raises(TicketError):
            store.delete_record(receipt.glsn, no_delete)

    def test_unknown_glsn(self, store, writer):
        with pytest.raises(UnknownGlsnError):
            store.read_record(0xDEAD, writer)

    def test_glsns_union(self, store, writer):
        receipts = [store.append(ROW, writer) for _ in range(3)]
        assert store.glsns == [r.glsn for r in receipts]

    def test_receipt_accumulator_matches_store(self, store, writer):
        receipt = store.append(ROW, writer)
        for node in store.stores.values():
            assert node.expected_accumulator(receipt.glsn) == receipt.accumulator

    def test_unknown_node(self, store):
        with pytest.raises(AccessDeniedError):
            store.node_store("P99")


class TestScan:
    def test_scan_order_and_filter(self, store, writer):
        for i in range(5):
            store.append({**ROW, "C1": i}, writer)
        p3 = store.node_store("P3")
        all_frags = list(p3.scan())
        assert [f.values["C1"] for f in all_frags] == [0, 1, 2, 3, 4]
        filtered = list(p3.scan(lambda f: f.values["C1"] >= 3))
        assert len(filtered) == 2

    def test_len(self, store, writer):
        store.append(ROW, writer)
        assert len(store.node_store("P0")) == 1


class TestChangeJournal:
    """Every mutation journals the lowest glsn it touched, and
    ``changed_from(epoch)`` answers the lowest since ``epoch``; the
    fragments stay in glsn order."""

    def test_an_append_batch_journals_its_first_glsn(self, store, writer):
        p3 = store.node_store("P3")
        start = p3.epoch
        assert p3.changed_from(start) is None
        receipts = store.append_batch([{**ROW, "C1": i} for i in range(6)], writer)
        middle = p3.epoch
        more = store.append_batch([{**ROW, "C1": i} for i in range(6, 8)], writer)
        assert p3.epoch == middle + 1 == start + 2
        assert p3.changed_from(start) == receipts[0].glsn
        assert p3.changed_from(middle) == more[0].glsn
        assert p3.changed_from(p3.epoch) is None
        floor = receipts[4].glsn
        assert p3.glsns_from(floor) == [r.glsn for r in receipts[4:] + more]
        assert [f.values["C1"] for f in p3.fragments_from(floor)] == [4, 5, 6, 7]
        assert p3.glsns_from(more[-1].glsn + 1) == []

    def test_delete_tamper_evict_journal_their_glsn(self, store, writer):
        glsns = [r.glsn for r in store.append_batch([ROW] * 4, writer)]
        p3 = store.node_store("P3")
        start = p3.epoch
        store.delete_record(glsns[2], writer)
        assert p3.changed_from(start) == glsns[2]
        p3.tamper(glsns[1], "C1", 99)
        tampered = p3.epoch
        p3.evict(glsns[3])
        assert p3.epoch == start + 3
        assert p3.changed_from(start) == glsns[1]
        assert p3.changed_from(tampered) == glsns[3]
        assert p3.glsns == glsns[:2]

    def test_a_put_below_the_top_journals_its_glsn(self, store, writer):
        glsns = [r.glsn for r in store.append_batch([ROW] * 3, writer)]
        p3 = store.node_store("P3")
        victim = p3.evict(glsns[1])
        evicted = p3.epoch
        p3.stage_put([victim], writer, [0])()
        assert p3.changed_from(evicted) == glsns[1]
        assert p3.glsns == glsns == sorted(p3._fragments)
        assert p3.glsns_from(glsns[1]) == glsns[1:]

    def test_an_epoch_older_than_the_bound_reads_as_everything_changed(
        self, store, writer
    ):
        glsns = [r.glsn for r in store.append_batch([ROW] * 2, writer)]
        p3 = store.node_store("P3")
        start = p3.epoch
        for value in range(JOURNAL_BOUND):
            p3.tamper(glsns[1], "C1", value)
        assert p3.changed_from(start) == glsns[1]
        p3.tamper(glsns[1], "C1", -1)
        assert p3.changed_from(start) == 0
        assert p3.changed_from(start + 1) == glsns[1]

    def test_concurrent_mutations_are_each_journaled(self, store, writer):
        """Seven writer threads (more than the cores) and a reader, with
        a 1 µs switch interval: no mutation is lost from the count, no
        read meets the journal mid-change, and the reader only ever sees
        a glsn some writer touched."""
        glsns = [r.glsn for r in store.append_batch([ROW] * 8, writer)]
        p3 = store.node_store("P3")
        start = p3.epoch
        done = threading.Event()
        seen, errors = set(), []

        rounds = JOURNAL_BOUND // 8  # 7 writers: the journal keeps every entry

        def mutate(glsn):
            for value in range(rounds):
                p3.tamper(glsn, "C1", value)

        def read():
            try:
                while not done.is_set():
                    seen.add(p3.changed_from(start))
            except RuntimeError as exc:  # the journal changed mid-read
                errors.append(exc)

        writers = [threading.Thread(target=mutate, args=(g,)) for g in glsns[1:]]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=30)
            done.set()
            reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + [reader])
        assert errors == []
        assert p3.epoch == start + 7 * rounds
        assert p3.changed_from(start) == glsns[1]
        assert seen <= {None, *glsns[1:]}

    def test_an_empty_install_adds_no_entry(self, store, writer):
        p3 = store.node_store("P3")
        store.append(ROW, writer)
        start = p3.epoch
        p3.stage_put([], writer, [])()
        assert p3.epoch == start and p3.changed_from(start) is None


class TestAccessControlTable:
    def test_grants_tracked_per_ticket(self, store, writer, ticket_authority):
        other = ticket_authority.issue("U2", {Operation.READ, Operation.WRITE})
        r1 = store.append(ROW, writer)
        r2 = store.append({**ROW, "id": "U2"}, other)
        acl = store.node_store("P0").acl
        assert acl.glsns_for(writer.ticket_id) == {r1.glsn}
        assert acl.glsns_for(other.ticket_id) == {r2.glsn}

    def test_render_shape(self, store, writer):
        store.append(ROW, writer)
        text = store.node_store("P1").acl.render()
        assert "Ticket ID" in text and "W/R" in text

    def test_replicas_consistent(self, store, writer, prime64):
        r = store.append(ROW, writer)
        ctx = SmcContext(prime64, DeterministicRng(b"acl"))
        replicas = {n: store.node_store(n).acl for n in store.stores}
        assert check_table_consistency(ctx, replicas, writer.ticket_id)

    def test_inconsistent_replica_detected(self, store, writer, prime64):
        store.append(ROW, writer)
        store.append(ROW, writer)
        # A compromised node silently adds a grant to its replica.
        rogue_acl = store.node_store("P2").acl
        rogue_acl._entries[writer.ticket_id].glsns.add(0xBAD)
        ctx = SmcContext(prime64, DeterministicRng(b"acl2"))
        replicas = {n: store.node_store(n).acl for n in store.stores}
        assert not check_table_consistency(ctx, replicas, writer.ticket_id)

    def test_unknown_ticket_consistent_when_empty(self, store, prime64):
        ctx = SmcContext(prime64, DeterministicRng(b"acl3"))
        replicas = {n: store.node_store(n).acl for n in store.stores}
        assert check_table_consistency(ctx, replicas, "no-such-ticket")

"""The per-``Fragment`` digest memo never outlives a rewrite.

Every integrity path reads ``Fragment.digest_exponent()``, computed once
per object.  Each way a stored fragment can change — a tamper, its
restore, a delete and re-append, a replayed WAL tamper record, a snapshot
reload — installs a *new* ``Fragment``, so a check that ran (and filled
the memos) before the rewrite must still flag exactly the rewritten glsn
afterwards, and be clean again once the value is put back.
"""

import pytest

from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.rng import DeterministicRng
from repro.crypto.tickets import Operation
from repro.logstore.integrity import (
    IntegrityChecker,
    run_batched_integrity_round,
    run_combined_integrity_round,
    run_integrity_round,
)
from repro.logstore.persistence import restore_store, snapshot_store
from repro.resilience import recovery_audit
from repro.store import StoreConfig, open_durable_store
from repro.workloads import paper_table1_rows


def failing(store, checker) -> dict[str, list[int]]:
    """The glsns each integrity path flags; ``checker`` is long-lived so
    its report cache is in play."""
    combined = run_combined_integrity_round(store)
    localized = [r.glsn for r in combined.reports if not r.ok]
    assert combined.ok == (not localized)
    return {
        "per_glsn": [r.glsn for r in run_integrity_round(store) if not r.ok],
        "batched": [r.glsn for r in run_batched_integrity_round(store) if not r.ok],
        "combined": localized,
        "checker": [r.glsn for r in checker.check_all() if not r.ok],
        "recovery_audit": list(recovery_audit(store).failures),
    }


def assert_flags(store, checker, expected: list[int]) -> None:
    got = failing(store, checker)
    assert got == dict.fromkeys(got, expected)


class TestMemoAcrossRewrites:
    def test_tamper_then_restore(self, populated_store):
        store, _, receipts = populated_store
        checker = IntegrityChecker(store)
        assert_flags(store, checker, [])  # fills every memo
        glsn = receipts[2].glsn
        node = store.node_store("P1")
        original = node.local_fragment(glsn).values["C2"]
        node.tamper(glsn, "C2", 10**6)
        assert_flags(store, checker, [glsn])
        node.tamper(glsn, "C2", original)
        assert_flags(store, checker, [])

    def test_delete_then_reappend(self, populated_store):
        store, ticket, receipts = populated_store
        checker = IntegrityChecker(store)
        assert_flags(store, checker, [])
        gone = receipts[1].glsn
        store.delete_record(gone, ticket)
        again = store.append(paper_table1_rows()[1], ticket).glsn
        assert gone not in store.glsns and again in store.glsns
        assert_flags(store, checker, [])
        node = store.node_store("P2")
        original = node.local_fragment(again).values["C3"]
        node.tamper(again, "C3", "forged")
        assert_flags(store, checker, [again])
        node.tamper(again, "C3", original)
        assert_flags(store, checker, [])

    def test_snapshot_reload(self, populated_store, ticket_authority):
        store, _, receipts = populated_store
        assert_flags(store, IntegrityChecker(store), [])
        glsn = receipts[3].glsn
        original = store.node_store("P1").local_fragment(glsn).values["C2"]
        store.node_store("P1").tamper(glsn, "C2", 10**6)
        reloaded = restore_store(snapshot_store(store), ticket_authority)
        checker = IntegrityChecker(reloaded)
        assert_flags(reloaded, checker, [glsn])
        reloaded.node_store("P1").tamper(glsn, "C2", original)
        assert_flags(reloaded, checker, [])

    def test_replayed_wal_tamper_record(
        self, table1_plan, ticket_authority, tmp_path
    ):
        store, _ = open_durable_store(
            table1_plan,
            ticket_authority,
            AccumulatorParams.generate(128, DeterministicRng(b"memo-acc")),
            tmp_path,
            config=StoreConfig(fsync="off", compact=False),
        )
        try:
            ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
            receipts = store.append_record(paper_table1_rows(), ticket)
            checker = IntegrityChecker(store)
            assert_flags(store, checker, [])
            glsn = receipts[0].glsn
            node = store.node_store("P1")
            original = node.local_fragment(glsn).values["C2"]
            record = {"op": "tamper", "glsn": glsn, "attribute": "C2", "value": 10**6}
            node.apply_wal_record(record)
            assert_flags(store, checker, [glsn])
            node.apply_wal_record(dict(record, value=original))
            assert_flags(store, checker, [])
        finally:
            store.close()


def test_memo_is_not_part_of_a_fragments_identity(populated_store):
    store, _, receipts = populated_store
    fragment = store.node_store("P0").local_fragment(receipts[0].glsn)
    Fragment = type(fragment)
    fields = dict(glsn=fragment.glsn, node_id=fragment.node_id, values=fragment.values)
    read, unread = Fragment(**fields), Fragment(**fields)
    assert read.digest_exponent() == fragment.digest_exponent()
    assert read == unread and repr(read) == repr(unread)
    with pytest.raises(TypeError):
        Fragment(**fields, _digest_exponent=3)

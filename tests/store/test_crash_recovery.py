"""Crash-recovery properties: any crash point yields a clean prefix.

The central claim of ``docs/storage.md``: for *any* crash point —
simulated here by truncating any node's WAL at any byte offset — the
recovered store equals the pre-crash store minus a (possibly empty)
suffix of appends, answers reads identically over the surviving prefix,
and passes the §4.1 integrity audit.
"""

import itertools
import random

import pytest

from repro.crypto.tickets import Operation
from repro.errors import LogStoreError
from repro.store import StoreConfig, open_durable_store
from repro.workloads import paper_table1_rows

from tests.store.conftest import reopen, store_state


def build(plan, authority, params, directory, rows, config, batch_sizes=()):
    """A fresh durable store holding ``rows``, appended in batches of
    ``batch_sizes`` in turn (cycled; one batch of everything when empty)."""
    store, report = open_durable_store(plan, authority, params, directory, config=config)
    assert report is None
    ticket = authority.issue(
        "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    receipts = append_in_batches(store, rows, ticket, batch_sizes)
    return store, ticket, receipts


def append_in_batches(store, rows, ticket, batch_sizes=()):
    sizes = itertools.cycle(batch_sizes or [max(len(rows), 1)])
    receipts, at = [], 0
    while at < len(rows):
        size = next(sizes)
        receipts += store.append_batch(rows[at : at + size], ticket)
        at += size
    return receipts


def crash(store):
    """Drop the store without checkpointing — handles closed, WALs kept."""
    if store.compactor is not None:
        store.compactor.stop()
        store.compactor = None
    for wal in store.wals.values():
        wal.close()
    store._closed = True  # skip the clean close path entirely


class TestCleanRestart:
    def test_close_and_reopen_is_identical(
        self, table1_plan, ticket_authority, acc_params, fast_config, tmp_path
    ):
        rows = paper_table1_rows()
        store, ticket, receipts = build(
            table1_plan, ticket_authority, acc_params, tmp_path, rows, fast_config
        )
        expected = store_state(store)
        store.close()
        recovered, report = reopen(
            table1_plan, ticket_authority, acc_params, tmp_path, fast_config
        )
        assert report.audit_ok and not report.rolled_back
        assert store_state(recovered) == expected
        for receipt, row in zip(receipts, rows):
            assert recovered.read_record(receipt.glsn, ticket).values == row
        recovered.close()

    def test_crash_without_checkpoint_replays_wal(
        self, table1_plan, ticket_authority, acc_params, fast_config, tmp_path
    ):
        rows = paper_table1_rows()
        store, ticket, receipts = build(
            table1_plan, ticket_authority, acc_params, tmp_path, rows, fast_config
        )
        expected_glsns = store.glsns
        crash(store)
        recovered, report = reopen(
            table1_plan, ticket_authority, acc_params, tmp_path, fast_config
        )
        assert report.wal_records > 0
        assert recovered.glsns == expected_glsns
        assert report.audit_ok
        recovered.close()

    def test_recovered_allocator_never_reuses_glsns(
        self, table1_plan, ticket_authority, acc_params, fast_config, tmp_path
    ):
        store, ticket, receipts = build(
            table1_plan, ticket_authority, acc_params, tmp_path,
            paper_table1_rows(), fast_config,
        )
        crash(store)
        recovered, _ = reopen(
            table1_plan, ticket_authority, acc_params, tmp_path, fast_config
        )
        new = recovered.append(
            dict(paper_table1_rows()[0]),
            ticket_authority.issue("U9", {Operation.WRITE}),
        )
        assert new.glsn > max(r.glsn for r in receipts)
        recovered.close()

    def test_delete_survives_recovery(
        self, table1_plan, ticket_authority, acc_params, fast_config, tmp_path
    ):
        store, ticket, receipts = build(
            table1_plan, ticket_authority, acc_params, tmp_path,
            paper_table1_rows(), fast_config,
        )
        store.delete_record(receipts[1].glsn, ticket)
        crash(store)
        recovered, report = reopen(
            table1_plan, ticket_authority, acc_params, tmp_path, fast_config
        )
        assert receipts[1].glsn not in recovered.glsns
        assert report.audit_ok
        recovered.close()


class TestSealedSegmentDamage:
    def test_recovery_refuses_a_damaged_sealed_segment(
        self, table1_plan, ticket_authority, acc_params, tmp_path
    ):
        config = StoreConfig(fsync="off", compact=False, segment_bytes=256)
        store, _, _ = build(
            table1_plan, ticket_authority, acc_params, tmp_path,
            paper_table1_rows() * 2, config, batch_sizes=[1],
        )
        crash(store)
        first, *later = sorted((tmp_path / "P1").glob("wal-*.seg"))
        assert later
        data = bytearray(first.read_bytes())
        data[-1] ^= 0xFF
        first.write_bytes(bytes(data))
        # Not a torn tail to roll back: P1's later segments are intact.
        with pytest.raises(LogStoreError, match=rf"{first.name}: CRC mismatch"):
            reopen(table1_plan, ticket_authority, acc_params, tmp_path, config)


class TestRandomizedTruncation:
    """Kill the WAL at randomized offsets; recovery must stay a clean prefix."""

    @pytest.mark.parametrize("seed", range(8))
    def test_any_truncation_point_recovers_a_verified_prefix(
        self, table1_plan, ticket_authority, acc_params, fast_config, tmp_path, seed
    ):
        rng = random.Random(seed)
        rows = paper_table1_rows() * 3
        # Several batches per segment, so a cut can land inside any of them.
        batch_sizes = [rng.randint(1, 6) for _ in range(4)]
        store, ticket, receipts = build(
            table1_plan, ticket_authority, acc_params, tmp_path, rows, fast_config,
            batch_sizes,
        )
        all_glsns = store.glsns
        crash(store)

        # Tear a random suffix off a random subset of node WALs.
        node_ids = list(store.stores)
        for node_id in rng.sample(node_ids, rng.randint(1, len(node_ids))):
            segments = sorted((tmp_path / node_id).glob("wal-*.seg"))
            segment = segments[-1]
            data = segment.read_bytes()
            cut = rng.randint(0, len(data))
            segment.write_bytes(data[:cut])

        recovered, report = reopen(
            table1_plan, ticket_authority, acc_params, tmp_path, fast_config
        )
        survived = recovered.glsns
        # 1. The survivors are a prefix of the pre-crash log.
        assert survived == all_glsns[: len(survived)]
        # 2. Rolled-back glsns come from the lost suffix, never the prefix.
        # (A glsn truncated on *every* node was never durable anywhere and
        # vanishes without a rollback entry — also part of the suffix.)
        assert set(report.rolled_back).isdisjoint(survived)
        assert set(report.rolled_back) <= set(all_glsns)
        if survived:
            assert all(g > survived[-1] for g in report.rolled_back)
        # 3. Recovered fragments verify against their integrity anchors.
        assert report.audit_ok, report.audit_failures
        # 4. Reads over the surviving prefix are byte-identical.
        for receipt, row in zip(receipts, rows):
            if receipt.glsn in survived:
                assert recovered.read_record(receipt.glsn, ticket).values == row
        recovered.close()

    @pytest.mark.parametrize("seed", range(4))
    def test_truncation_after_checkpoint_only_loses_post_checkpoint_rows(
        self, table1_plan, ticket_authority, acc_params, fast_config, tmp_path, seed
    ):
        rng = random.Random(1000 + seed)
        rows = paper_table1_rows()
        store, ticket, receipts = build(
            table1_plan, ticket_authority, acc_params, tmp_path, rows, fast_config, [2]
        )
        store.checkpoint()
        checkpointed = list(store.glsns)
        extra = append_in_batches(store, rows * 2, ticket, [rng.randint(1, 4), 3])
        crash(store)
        node_id = rng.choice(list(store.stores))
        segment = sorted((tmp_path / node_id).glob("wal-*.seg"))[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[: rng.randint(0, len(data))])

        recovered, report = reopen(
            table1_plan, ticket_authority, acc_params, tmp_path, fast_config
        )
        # Checkpointed rows can never be lost to a WAL truncation.
        assert set(checkpointed) <= set(recovered.glsns)
        assert set(recovered.glsns) <= set(checkpointed) | {r.glsn for r in extra}
        assert report.audit_ok
        recovered.close()

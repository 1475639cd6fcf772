"""Durable cluster store: journaling, checkpoints, compaction, config."""

import pytest

from repro.errors import ConfigurationError
from repro.logstore.integrity import IntegrityChecker
from repro.store import (
    CHECKPOINT_FILE,
    DurableDistributedLogStore,
    StoreConfig,
    open_durable_store,
)
from repro.workloads import paper_table1_rows

from tests.store.conftest import reopen


class TestWritePath:
    def test_reads_equal_in_memory_semantics(self, durable_store):
        store, ticket, _ = durable_store
        receipts = store.append_record(paper_table1_rows(), ticket)
        record = store.read_record(receipts[0].glsn, ticket)
        assert record.values == paper_table1_rows()[0]
        assert store.glsns == [r.glsn for r in receipts]
        checker = IntegrityChecker(store)
        assert all(r.ok for r in checker.check_all())

    def test_every_mutation_journaled(self, durable_store):
        store, ticket, _ = durable_store
        receipts = store.append_record(paper_table1_rows()[:2], ticket)
        store.delete_record(receipts[0].glsn, ticket)
        for wal in store.wals.values():
            ops = [e["op"] for e in wal.replay().entries]
            assert ops == ["put", "put", "delete"]

    def test_put_records_carry_no_chain_and_old_ones_replay(self, durable_store):
        """The per-append chain anchor is gone from the WAL; a ``put``
        written by an older store with a ``"chain"`` field still replays."""
        store, ticket, _ = durable_store
        receipt = store.append(paper_table1_rows()[0], ticket)
        node = store.node_store("P1")
        [record] = store.wals["P1"].replay().entries
        assert "chain" not in record
        node.delete(receipt.glsn, ticket)
        node.apply_wal_record(dict(record, chain=12345))
        assert node.glsns == [receipt.glsn]
        assert all(r.ok for r in IntegrityChecker(store).check_all())

    def test_append_batch_one_sync_per_batch(self, durable_store):
        store, ticket, _ = durable_store
        receipts = store.append_batch(paper_table1_rows(), ticket)
        assert [r.glsn for r in receipts] == store.glsns

    def test_initial_checkpoint_written_up_front(self, durable_store):
        store, _, directory = durable_store
        assert (directory / CHECKPOINT_FILE).exists()


class TestCheckpoint:
    def test_checkpoint_truncates_wals(self, durable_store):
        store, ticket, directory = durable_store
        store.append_record(paper_table1_rows(), ticket)
        assert any(wal.replay().records for wal in store.wals.values())
        store.checkpoint()
        assert all(wal.replay().records == 0 for wal in store.wals.values())
        assert (directory / CHECKPOINT_FILE).exists()

    def test_recovery_from_checkpoint_only(
        self, durable_store, table1_plan, ticket_authority, acc_params, fast_config
    ):
        store, ticket, directory = durable_store
        receipts = store.append_record(paper_table1_rows(), ticket)
        store.checkpoint()
        store.close()
        recovered, report = reopen(
            table1_plan, ticket_authority, acc_params, directory, fast_config
        )
        assert report.checkpoint_loaded and report.wal_records == 0
        assert recovered.glsns == [r.glsn for r in receipts]
        assert report.audit_ok
        recovered.close()

    def test_background_compaction_checkpoints(
        self, table1_plan, ticket_authority, acc_params, tmp_path
    ):
        import time

        from repro.crypto.tickets import Operation

        config = StoreConfig(
            fsync="off", segment_bytes=200, compact_segments=1, compact=True
        )
        store, _ = open_durable_store(
            table1_plan, ticket_authority, acc_params, tmp_path, config=config
        )
        ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
        baseline = store.checkpoints_written
        for row in paper_table1_rows() * 3:
            store.append(dict(row), ticket)
        deadline = time.monotonic() + 5.0
        while store.checkpoints_written == baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert store.checkpoints_written > baseline
        store.close()

    def test_failed_background_checkpoint_is_kept_counted_and_logged(
        self, table1_plan, ticket_authority, acc_params, tmp_path, caplog
    ):
        import logging
        import time

        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        store, _ = open_durable_store(
            table1_plan, ticket_authority, acc_params, tmp_path,
            config=StoreConfig(fsync="off", compact=True), metrics=metrics,
        )

        def full_disk():
            raise OSError("no space left on device")

        store.checkpoint = full_disk
        with caplog.at_level(logging.ERROR, logger="repro.store"):
            store.compactor.trigger()
            deadline = time.monotonic() + 5.0
            while store.compactor.last_error is None and time.monotonic() < deadline:
                time.sleep(0.01)
        store.close()
        assert isinstance(store.compactor.last_error, OSError)
        assert metrics.value("repro_store_compaction_failures_total") == 1
        assert "no space left on device" in caplog.text


class TestConfig:
    def test_from_env_reads_every_knob(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_STORE_FSYNC", "always")
        assert StoreConfig.from_env() == StoreConfig(
            directory=str(tmp_path), fsync="always"
        )

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_FSYNC", "sometimes")
        with pytest.raises(ConfigurationError, match="REPRO_STORE_FSYNC"):
            StoreConfig.from_env()

    def test_explicit_config_validates(self):
        with pytest.raises(ConfigurationError):
            StoreConfig(fsync="nope")
        with pytest.raises(ConfigurationError):
            StoreConfig(segment_bytes=0)
        with pytest.raises(ConfigurationError):
            StoreConfig(compact_segments=0)


class TestLifecycle:
    def test_close_idempotent_and_context_manager(
        self, table1_plan, ticket_authority, acc_params, fast_config, tmp_path
    ):
        with DurableDistributedLogStore(
            table1_plan,
            ticket_authority,
            acc_params,
            tmp_path,
            config=fast_config,
        ) as store:
            pass
        store.close()  # second close is a no-op

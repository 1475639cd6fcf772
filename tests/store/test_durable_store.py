"""Durable cluster store: journaling, checkpoints, compaction, config."""

import pytest

from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.crypto.accumulator import AccumulatorParams
from repro.errors import ConfigurationError
from repro.logstore import paper_fragment_plan, paper_table1_schema
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

        store, _ = open_durable_store(
            table1_plan, ticket_authority, acc_params, tmp_path,
            config=StoreConfig(fsync="off", compact=True),
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
        # The count /metrics reads as repro_store_compaction_failures_total.
        assert store.compactor.failures == 1
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


class TestAccumulatorModulus:
    """A service generates its accumulator modulus only for a store that
    has none yet; a recovery reuses the checkpointed one."""

    # ``AccumulatorParams.generate(256, DeterministicRng(b"acc-pin")
    # .spawn("accumulator"))``, the modulus every earlier build produced.
    PINNED = (
        0x9E75B1B1D783F4D257673E68C200DC6705A5AE895BF2EBD0207EE0D538E6E9AD,
        0x758131E63E443F135EEF730695A35C218D0E6DE2779EB8DD47A4CC1772E7C57E,
    )

    @staticmethod
    def service(store_dir=None):
        schema = paper_table1_schema()
        return ConfidentialAuditingService(
            schema, paper_fragment_plan(schema), prime_bits=64,
            rng=DeterministicRng(b"acc-pin"), store_dir=store_dir,
            store_config=StoreConfig(fsync="off", compact=False),
        )

    @pytest.mark.parametrize("durable", [False, True], ids=["in-memory", "fresh dir"])
    def test_fresh_store_modulus_is_unchanged(self, durable, tmp_path):
        service = self.service(str(tmp_path) if durable else None)
        try:
            params = service.store.accumulator.params
            assert (params.n, params.x0) == self.PINNED
        finally:
            service.close()

    def test_recovery_generates_no_modulus(self, tmp_path, monkeypatch):
        first = self.service(str(tmp_path))
        first.append_stream(paper_table1_rows(), first.register_user("U1"))
        first.close()

        def refuse(*_args, **_kwargs):
            raise AssertionError("a recovery generated a modulus")

        monkeypatch.setattr(AccumulatorParams, "generate", refuse)
        second = self.service(str(tmp_path))
        try:
            params = second.store.accumulator.params
            assert (params.n, params.x0) == self.PINNED
            assert second.last_recovery.audit_ok
        finally:
            second.close()

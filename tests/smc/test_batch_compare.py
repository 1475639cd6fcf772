"""Tests for the batched blind-TTP comparison."""

import pytest

from repro.audit.executor import QueryExecutor
from repro.baseline.centralized import CentralizedAuditor
from repro.crypto import DeterministicRng
from repro.errors import ConfigurationError
from repro.logstore.records import LogRecord
from repro.net.simnet import SimNetwork
from repro.smc.base import SmcContext
from repro.smc.comparison import secure_compare, secure_compare_batch
from repro.workloads import paper_table1_rows
from tests.compare_loop import per_pair_compare


class TestBatchCompare:
    def test_matches_reference(self, ctx):
        left = [1, 5, 9, 7, 0]
        right = [2, 5, 3, 7, 1]
        result = secure_compare_batch(ctx, ("A", left), ("B", right))
        expected = [
            "lt" if a < b else ("gt" if a > b else "eq")
            for a, b in zip(left, right)
        ]
        assert result.any_value == expected

    def test_matches_per_pair_protocol(self, ctx):
        pairs = [(3, 7), (7, 3), (4, 4)]
        batch = secure_compare_batch(
            ctx, ("A", [a for a, _ in pairs]), ("B", [b for _, b in pairs]),
            session="agree",
        ).any_value
        singles = [
            secure_compare(ctx, ("A", a), ("B", b), session=f"s{i}").any_value
            for i, (a, b) in enumerate(pairs)
        ]
        assert batch == singles

    def test_four_messages_regardless_of_size(self, ctx):
        net = SimNetwork()
        secure_compare_batch(
            ctx, ("A", list(range(100))), ("B", list(range(100))), net=net
        )
        assert net.stats.messages == 4

    def test_empty_vectors(self, ctx):
        result = secure_compare_batch(ctx, ("A", []), ("B", []))
        assert result.any_value == []

    def test_mismatched_lengths(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_compare_batch(ctx, ("A", [1]), ("B", [1, 2]))

    def test_negative_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_compare_batch(ctx, ("A", [-1]), ("B", [1]))

    def test_same_party_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_compare_batch(ctx, ("A", [1]), ("A", [1]))

    def test_both_parties_same_verdicts(self, ctx):
        result = secure_compare_batch(ctx, ("A", [1, 2]), ("B", [2, 1]))
        assert result.value_for("A") == result.value_for("B")

    def test_leakage_counts_batch(self, ctx):
        secure_compare_batch(ctx, ("A", [1, 2, 3]), ("B", [3, 2, 1]))
        events = [e for e in ctx.leakage.events if e.observer in ("ttp", "*")]
        assert any("3 pairwise" in e.detail for e in events)


class TestExecutorBatchMode:
    """The executor's one batched comparison against a per-pair loop."""

    @pytest.fixture()
    def executor(self, populated_store, table1_schema, prime64):
        store, _, _ = populated_store
        return QueryExecutor(
            store, SmcContext(prime64, DeterministicRng(b"b")), table1_schema
        )

    def test_batch_and_per_glsn_agree(self, executor, table1_schema):
        oracle = CentralizedAuditor(table1_schema)
        for glsn, row in zip(executor.store.glsns, paper_table1_rows()):
            oracle.ingest(LogRecord(glsn, row))
        ctx = SmcContext(executor.ctx.prime, DeterministicRng(b"p"))
        for left, op, right in (("C1", "<", "C2"), ("C2", "<", "C1"), ("C1", ">=", "C2")):
            criterion = f"{left} {op} {right}"
            looped = per_pair_compare(executor.store, ctx, left, op, right, SimNetwork())
            assert executor.execute(criterion).glsns == looped, criterion
            assert looped == oracle.execute(criterion), criterion
        # One column read twice is a local predicate: no pair to loop over.
        assert executor.execute("C1 >= C1").glsns == oracle.execute("C1 >= C1")

    def test_batch_mode_is_cheaper(self, executor):
        """Alignment and batch together send fewer messages than the loop."""
        net = SimNetwork()
        ctx = SmcContext(executor.ctx.prime, DeterministicRng(b"p2"))
        per_pair_compare(executor.store, ctx, "C1", "<", "C2", net)
        assert executor.execute("C1 < C2").messages < net.stats.messages

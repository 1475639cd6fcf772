"""Tests for early-exit clause ordering in the executor."""

import pytest

from repro.audit.executor import QueryExecutor
from repro.baseline.centralized import CentralizedAuditor
from repro.crypto import DeterministicRng
from repro.logstore.records import LogRecord
from repro.net.simnet import SimNetwork
from repro.smc.base import SmcContext
from repro.workloads import paper_table1_rows


@pytest.fixture()
def executor(populated_store, table1_schema, prime64):
    store, _, _ = populated_store
    return QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(b"ee")), table1_schema
    )


@pytest.fixture()
def oracle(populated_store, table1_schema):
    """Centralized evaluation over the same rows: every clause, in full."""
    _, _, receipts = populated_store
    auditor = CentralizedAuditor(table1_schema)
    for receipt, row in zip(receipts, paper_table1_rows()):
        auditor.ingest(LogRecord(receipt.glsn, row))
    return auditor


class TestEarlyExit:
    def test_empty_local_clause_skips_cross_smc(self, executor):
        """'C1 > 10000' is empty, so the cross-order predicate must never
        run: zero network traffic, where the cross clause alone costs some."""
        net = SimNetwork()
        result = executor.execute("C1 > 10000 and C1 < C2", net=net)
        assert result.glsns == []
        assert result.messages == 0
        assert executor.execute("C1 < C2", net=SimNetwork()).messages > 0

    def test_results_identical_either_way(self, executor, oracle):
        """Stopping at an empty clause never changes the answer: it is the
        plaintext oracle's, which evaluates every clause."""
        criteria = [
            "C1 > 30 and Tid = 'T1100265'",
            "C1 > 10000 and C1 < C2",
            "C1 < C2 and protocl = 'UDP'",
            "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267'",
        ]
        for criterion in criteria:
            assert executor.execute(criterion).glsns == oracle.execute(criterion), criterion

    def test_local_clauses_evaluated_first(self, executor):
        """The subquery breakdown shows locals resolved even when a cross
        clause appears first in the criterion text."""
        net = SimNetwork()
        result = executor.execute("C1 < C2 and C1 > 10000", net=net)
        assert result.glsns == [] and result.messages == 0
        # the empty local clause is present in the breakdown; the cross
        # clause was skipped entirely.
        assert any(not g for g in result.subquery_glsns.values())
        assert len(result.subquery_glsns) == 1

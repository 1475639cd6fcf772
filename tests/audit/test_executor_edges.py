"""Executor edge cases: empty stores, sparse attributes, error paths."""

import pytest

from repro.audit.executor import QueryExecutor
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.errors import AuditError, QuerySyntaxError, UnknownAttributeError
from repro.logstore.store import DistributedLogStore
from repro.smc.base import SmcContext


@pytest.fixture()
def empty_executor(table1_schema, table1_plan, ticket_authority, prime64):
    store = DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"edge")),
    )
    return QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(b"edge-ctx")), table1_schema
    )


@pytest.fixture()
def sparse_executor(table1_schema, table1_plan, ticket_authority, prime64):
    store = DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"sparse")),
    )
    ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
    store.append_batch(
        [
            {"C1": 10},                          # only C1
            {"C2": "5.00"},                      # only C2
            {"C1": 20, "C2": "30.00"},           # both
            {"protocl": "UDP"},                  # neither
        ],
        ticket,
    )
    return QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(b"sparse-ctx")), table1_schema
    )


class TestEmptyStore:
    def test_local_query(self, empty_executor):
        assert empty_executor.execute("C1 > 0").glsns == []

    def test_cross_query(self, empty_executor):
        assert empty_executor.execute("C1 < C2").glsns == []

    def test_conjunction(self, empty_executor):
        assert empty_executor.execute("C1 > 0 and Tid = 'T'").glsns == []

    def test_aggregates(self, empty_executor):
        assert empty_executor.aggregate("sum", "C1").value == 0
        assert empty_executor.aggregate("count", "C1").value == 0
        assert empty_executor.aggregate("max", "C1").value is None


class TestSparseAttributes:
    def test_missing_attribute_never_matches(self, sparse_executor):
        result = sparse_executor.execute("C1 >= 0")
        assert len(result.glsns) == 2  # only records carrying C1

    def test_cross_predicate_needs_both_present(self, sparse_executor):
        result = sparse_executor.execute("C1 < C2")
        assert len(result.glsns) == 1  # only the record with both

    def test_negated_equality_needs_presence(self, sparse_executor):
        """!= matches only records where BOTH attributes exist and differ."""
        result = sparse_executor.execute("C1 != C2")
        assert len(result.glsns) == 1

    def test_aggregate_skips_missing(self, sparse_executor):
        assert sparse_executor.aggregate("sum", "C1").value == 30
        assert sparse_executor.aggregate("count", "C2").value == 2


class TestErrorPaths:
    def test_unknown_attribute(self, empty_executor):
        with pytest.raises(UnknownAttributeError):
            empty_executor.execute("ghost = 1")

    def test_syntax_error(self, empty_executor):
        with pytest.raises(QuerySyntaxError):
            empty_executor.execute("C1 >")

    def test_aggregate_on_text_values_fails_numerically(
        self, table1_schema, table1_plan, ticket_authority, prime64
    ):
        store = DistributedLogStore(
            table1_plan,
            ticket_authority,
            AccumulatorParams.generate(128, DeterministicRng(b"txt")),
        )
        ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
        store.append({"C3": "not-a-number"}, ticket)
        executor = QueryExecutor(
            store, SmcContext(prime64, DeterministicRng(b"txt-ctx")), table1_schema
        )
        with pytest.raises((AuditError, ValueError)):
            executor.aggregate("sum", "C3")

    def test_negative_values_rejected_in_cross_order(
        self, table1_schema, table1_plan, ticket_authority, prime64
    ):
        store = DistributedLogStore(
            table1_plan,
            ticket_authority,
            AccumulatorParams.generate(128, DeterministicRng(b"neg")),
        )
        ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
        store.append({"C1": -5, "C2": "1.00"}, ticket)
        executor = QueryExecutor(
            store, SmcContext(prime64, DeterministicRng(b"neg-ctx")), table1_schema
        )
        with pytest.raises(AuditError):
            executor.execute("C1 < C2")

    @pytest.mark.parametrize(
        "value", [10**400, float("inf"), float("nan")], ids=["10**400", "inf", "nan"]
    )
    def test_value_outside_float_range_fails_cross_order_typed(
        self, value, table1_schema, table1_plan, ticket_authority, prime64
    ):
        """A value the fixed-point table cannot hold fails an ordered cross
        predicate with the typed error an aggregate over it raises, before
        any round is run."""
        store = DistributedLogStore(
            table1_plan,
            ticket_authority,
            AccumulatorParams.generate(128, DeterministicRng(b"huge")),
        )
        ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
        store.append_batch([{"C1": 7, "C5": 3}, {"C1": value, "C5": 4}], ticket)
        ctx = SmcContext(prime64, DeterministicRng(b"huge-ctx"))
        executor = QueryExecutor(store, ctx, table1_schema)
        with pytest.raises(AuditError, match="needs numeric values"):
            executor.execute("C1 > C5")
        assert ctx.crypto_ops.snapshot() == {}
        with pytest.raises(AuditError, match="needs numeric values"):
            executor.aggregate("sum", "C1")

"""An aggregate's measure owner learns which of its rows matched.

``aggregate(op, attr, criterion)`` filters the owner's column by the
criterion's plaintext glsn set, so the owner of ``attr`` learns which of
its rows carry attribute values held elsewhere.  The ledger records that
as ``result_membership`` (ROADMAP item 4(i)); a criterion on the owner's
own attributes discloses nothing new and records nothing.
"""

from __future__ import annotations

import pytest

from repro.audit.executor import QueryExecutor
from repro.crypto import AccumulatorParams, DeterministicRng, Operation
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.store import DistributedLogStore
from repro.smc.base import SmcContext
from repro.workloads import paper_table1_rows


def membership(executor) -> list[tuple[str, str]]:
    return [
        (e.protocol, e.observer)
        for e in executor.ctx.leakage.events
        if e.category == "result_membership"
    ]


@pytest.fixture()
def executor(populated_store, table1_schema, prime64):
    store, _, _ = populated_store
    return QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(b"membership")), table1_schema
    )


def test_the_measure_owner_learns_which_rows_matched_elsewhere(executor):
    """Table 1: C1 lives on P3; ``Tid`` lives on P2.  That no row matches
    is itself what P3 learns about its rows."""
    assert executor.plan.owners_of("C1") == ["P3"]
    result = executor.aggregate("sum", "C1", "protocl = 'UDP' and Tid = 'T3'")
    assert result.matched == 0
    assert membership(executor) == [("aggregate", "P3")]
    assert executor.aggregate("sum", "C1", "Tid = 'T1100267'").value == 45 + 53
    assert membership(executor) == [("aggregate", "P3")] * 2
    details = [
        e.detail for e in executor.ctx.leakage.events
        if e.category == "result_membership"
    ]
    assert "Tid = 'T3'" in details[0] and "(2 glsns)" in details[1]


def test_a_criterion_on_the_owners_own_attributes_records_nothing(executor):
    executor.aggregate("sum", "C1", "protocl = 'UDP'")
    executor.aggregate("count", "C1")
    assert membership(executor) == []


def test_the_group_owner_learns_which_rows_matched(executor):
    out = executor.aggregate_grouped(
        "count", "C1", group_by="protocl", criterion="Tid = 'T1100267'"
    )
    assert {group: r.value for group, r in out.items()} == {"TCP": 1, "UDP": 1}
    assert membership(executor) == [("aggregate_grouped", "P3")]


def test_each_replicated_owner_of_a_count_learns_it(table1_schema, ticket_authority, prime64):
    plan = FragmentPlan(
        table1_schema,
        {
            "P0": ["Time", "C4", "C1"],
            "P1": ["id", "EID", "C2", "C5", "C1"],
            "P2": ["Tid", "C3", "C"],
            "P3": ["protocl", "ip"],
        },
        allow_overlap=True,
    )
    store = DistributedLogStore(
        plan, ticket_authority, AccumulatorParams.generate(128, DeterministicRng(b"r"))
    )
    store.append_batch(
        paper_table1_rows(), ticket_authority.issue("U1", {Operation.WRITE})
    )
    executor = QueryExecutor(
        store, SmcContext(prime64, DeterministicRng(b"r-ctx")), table1_schema
    )
    assert executor.aggregate("count", "C1", "Tid = 'T1100267'").value == 2
    assert membership(executor) == [("aggregate", "P0"), ("aggregate", "P1")]

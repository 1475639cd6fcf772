"""The executor binds a query's steps once, before any ring, then runs them.

``QueryExecutor._bind`` fixes every step's protocol, parties, store epochs,
input columns and alignment route, and the final conjunction; ``execute``
walks the result.  These tests hold the traced protocol runs to the bound
steps, the bound columns to the plan's floor, the memo to the epochs read
at binding, and the alignment's price to the cipher module's
``decrypt_weight``.
"""

from __future__ import annotations

import pytest

from repro.audit import executor as executor_module
from repro.audit.ast_nodes import AttributeRef
from repro.audit.executor import QueryExecutor
from repro.audit.planner import plan_query
from repro.cache import set_caching_enabled
from repro.core import ConfidentialAuditingService
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.logstore import DistributedLogStore, paper_fragment_plan, paper_table1_schema
from repro.obs.tracer import Tracer
from repro.smc import SmcContext
from tests.audit.test_cross_cost_formula import TEMPLATES, dense_rows
from tests.plan_steps import bound_runs, traced_runs

SCHEMA = paper_table1_schema()
PLAN = paper_fragment_plan(SCHEMA)


def traced_executor(rows: list[dict], prime: int | None = None):
    """A bare executor (no sub-plan memo) over ``rows``, tracing into its own
    tracer; returns ``(executor, glsns)``."""
    authority = TicketAuthority(b"bound-plan-test-master-secret!!!")
    store = DistributedLogStore(
        PLAN, authority, AccumulatorParams.generate(128, DeterministicRng(b"bound"))
    )
    ticket = authority.issue("U", {Operation.READ, Operation.WRITE})
    glsns = [receipt.glsn for receipt in store.append_batch(rows, ticket)]
    ctx = SmcContext(
        prime or shared_prime(64), DeterministicRng(b"bound-ctx"), tracer=Tracer()
    )
    return QueryExecutor(store, ctx, SCHEMA), glsns


@pytest.fixture()
def caching_off():
    set_caching_enabled(False)
    yield
    set_caching_enabled(None)


def assert_runs_its_bound_steps(executor: QueryExecutor, criterion: str) -> None:
    """``criterion`` run traced equals its bound plan, step by step."""
    qplan = plan_query(criterion, SCHEMA, PLAN)
    bound = executor._bind(qplan)
    tracer = executor.ctx.tracer
    seen = len(tracer.finished_spans())
    executor.execute(qplan)
    spans = tracer.finished_spans()[seen:]
    assert traced_runs(spans) == bound_runs(bound)
    (root,) = [span for span in spans if span.name == "query.execute"]
    assert root.attributes["conjunction"] == bound.conjunction


@pytest.mark.parametrize("criterion", [t.values[0] for t in TEMPLATES])
def test_the_cross_audit_templates_run_their_bound_steps(caching_off, criterion):
    executor, _ = traced_executor(dense_rows())
    assert_runs_its_bound_steps(executor, criterion)


def test_both_alignment_routes_run_as_bound(caching_off):
    """Dense columns bind the absent-set union, sparse ones the presence
    intersection; each step runs what it bound."""
    sparse = [
        {k: v for k, v in row.items() if k not in ("C1", "C5") or i % 3 == 0}
        for i, row in enumerate(dense_rows(30))
    ]
    for rows, route in ((dense_rows(30), "absent-union"), (sparse, "present-intersection")):
        executor, _ = traced_executor(rows)
        for criterion in ("C1 > C5 and C2 < 900", "C1 != C5", "C4 = C and C1 <= C5"):
            bound = executor._bind(plan_query(criterion, SCHEMA, PLAN))
            (step, *_) = [
                s for c in bound.clauses for s in c.steps if s.alignment is not None
            ]
            assert step.alignment.route == route
            assert_runs_its_bound_steps(executor, criterion)


def test_a_floored_plan_binds_its_columns_from_the_floor():
    executor, glsns = traced_executor(dense_rows(20))
    floor = glsns[7]
    qplan = plan_query("C1 < C5 and C2 < 500", SCHEMA, PLAN)
    qplan.floor = floor
    steps = [s for clause in executor._bind(qplan).clauses for s in clause.steps]
    for step in steps:
        attributes = [step.predicate.left.name]
        if isinstance(step.predicate.right, AttributeRef):
            attributes.append(step.predicate.right.name)
        for node, attribute, column in zip(
            step.nodes * len(attributes), attributes, step.columns
        ):
            fragments = executor.store.node_store(node).fragments_from(floor)
            want = executor_module._Column(fragments, attribute).raw
            assert column.raw == want and min(want) == floor
        assert step.key[-1] == floor
    (cross,) = [step for step in steps if step.alignment is not None]
    assert all(index == glsns[7:] for index in cross.alignment.indexes)
    full = executor.execute("C1 < C5 and C2 < 500").glsns
    assert executor.execute(qplan).glsns == [g for g in full if g >= floor]


def test_a_row_appended_after_binding_leaves_no_memo_entry_under_the_new_epochs(
    monkeypatch,
):
    rows = dense_rows(20)
    service = ConfidentialAuditingService(
        SCHEMA, paper_fragment_plan(SCHEMA), prime_bits=64,
        rng=DeterministicRng(b"bound-append"),
    )
    ticket = service.register_user("u")
    service.append_stream(rows, ticket)
    late = {"C1": 99, "C5": 0, "C2": 1, "C3": "bank", "C4": 0, "C": 0}
    real_bind = QueryExecutor._bind

    def bind_then_append(self, qplan):
        bound = real_bind(self, qplan)
        if late not in rows:  # once, before the cross step's first ring
            rows.append(late)
            service.log_event(late, ticket)
        return bound

    criterion = "C1 > C5 and C3 = 'bank'"
    try:
        monkeypatch.setattr(QueryExecutor, "_bind", bind_then_append)
        service.query(criterion)
        monkeypatch.setattr(QueryExecutor, "_bind", real_bind)
        epochs = {
            node: service.store.node_store(node).epoch for node in PLAN.node_ids
        }
        assert service.subplan_memo._entries  # the run at the bound epochs
        for key in service.subplan_memo._entries:
            assert any(epochs[node] != epoch for node, epoch in key[2]), key
        want = [
            glsn
            for glsn, row in zip(service.store.glsns, rows)
            if row["C1"] > row["C5"] and row["C3"] == "bank"
        ]
        assert service.query(criterion).glsns == want
    finally:
        service.close()


def test_alignment_is_priced_by_the_ciphers_decrypt_weight(unsafe_prime512):
    """Over a prime whose keys get a full-range ``e``, a decryption costs one
    encryption, so 8 absent glsns against 16 present ones align by the
    union (``(1 + 1)·8 <= 16``); at ``2×`` they would not."""
    rows = [{"C1": i, "C5": 20 - i, "C2": i, "protocl": "tcp"} for i in range(12)]
    for row in rows[:4]:
        del row["C1"]
    for row in rows[4:8]:
        del row["C5"]
    executor, glsns = traced_executor(rows, prime=unsafe_prime512)
    result = executor.execute("C1 < C5")
    (span,) = [
        s for s in executor.ctx.tracer.finished_spans() if s.name == "query.predicate"
    ]
    assert span.attributes["alignment"] == "absent-union"
    assert span.attributes["absent_sizes"] == {"P3": 4, "P1": 4}
    assert result.glsns == [
        glsn for glsn, row in zip(glsns, rows)
        if "C1" in row and "C5" in row and row["C1"] < row["C5"]
    ]

"""Property test: typed-column matching ≡ the row-by-row scan it replaced.

``QueryExecutor._local_scan`` answers a single-node predicate from the
per-epoch typed columns.  The reference below is the loop the executor ran
before (one ``_apply_op`` per fragment, both operands re-coerced each
time), kept here verbatim so the comparison is against that rule and not
against a second copy of the column code.  Whatever the float / str arrays
cannot hold — a mixed pair, an integer ``float()`` overflows on — must go
through the residual row pass and give the same answer, or the same error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit.ast_nodes import AttributeRef, Constant, Predicate
from repro.audit.executor import QueryExecutor
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.smc.base import SmcContext

OPERATORS = ["<", ">", "=", "!=", "<=", ">="]
NODE, LEFT, RIGHT = "P1", "C2", "C5"  # two attributes of one fragment

SCHEMA = paper_table1_schema()
PLAN = paper_fragment_plan(SCHEMA)
ACC = AccumulatorParams.generate(128, DeterministicRng(b"column-scan"))


def reference_scan(store, op, left, right) -> set[int]:
    """The parent commit's ``_local_scan`` body and its ``_apply_op``."""
    out = set()
    for frag in store.scan():
        if left not in frag.values:
            continue
        l = frag.values[left]
        if isinstance(right, Constant):
            r = right.value
        elif right.name in frag.values:
            r = frag.values[right.name]
        else:
            continue
        try:
            l, r = float(l), float(r)
        except (TypeError, ValueError):
            l, r = str(l), str(r)
        table = {
            "<": l < r, ">": l > r, "=": l == r,
            "!=": l != r, "<=": l <= r, ">=": l >= r,
        }
        if table[op]:
            out.add(frag.glsn)
    return out


values = st.one_of(
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from(["12", "1e3", " 7 ", "-0", "7", "nan", "inf", "-inf", "NaN"]),
    st.sampled_from(["", " ", "tcp", "udp", "12a", "None", "True", "b'12'"]),
    st.text(max_size=3),
    st.booleans(),
    st.sampled_from([b"12", b"xy", b""]),
    st.none(),
    st.sampled_from([2**53 + 1, 10**400, -(10**400)]),  # float() rounds / overflows
)
ABSENT = object()
cells = st.one_of(st.just(ABSENT), values)
rows = st.lists(st.tuples(cells, cells), min_size=0, max_size=10)


def _executor(pairs) -> QueryExecutor:
    authority = TicketAuthority(b"column-scan-master-secret-012345")
    store = DistributedLogStore(PLAN, authority, ACC)
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    records = [
        {
            "Tid": f"T{i}",  # keeps rows with neither attribute loggable
            **({} if a is ABSENT else {LEFT: a}),
            **({} if b is ABSENT else {RIGHT: b}),
        }
        for i, (a, b) in enumerate(pairs)
    ]
    if records:
        store.append_batch(records, ticket)
    ctx = SmcContext(shared_prime(64), DeterministicRng(b"column-scan-ctx"))
    return QueryExecutor(store, ctx, SCHEMA)


def _outcome(compute):
    """The glsn set, or the type of the error the scan dies with."""
    try:
        return compute()
    except (OverflowError, TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(pairs=rows, op=st.sampled_from(OPERATORS), constant=values)
def test_attribute_vs_constant_matches_the_row_scan(pairs, op, constant):
    executor = _executor(pairs)
    right = Constant(constant)
    got = _outcome(
        lambda: executor._local_scan(NODE, Predicate(AttributeRef(LEFT), op, right))
    )
    want = _outcome(
        lambda: reference_scan(executor.store.node_store(NODE), op, LEFT, right)
    )
    assert got == want


@settings(max_examples=150, deadline=None)
@given(pairs=rows, op=st.sampled_from(OPERATORS))
def test_attribute_vs_attribute_on_one_node_matches_the_row_scan(pairs, op):
    executor = _executor(pairs)
    right = AttributeRef(RIGHT)
    got = _outcome(
        lambda: executor._local_scan(NODE, Predicate(AttributeRef(LEFT), op, right))
    )
    want = _outcome(
        lambda: reference_scan(executor.store.node_store(NODE), op, LEFT, right)
    )
    assert got == want


@pytest.mark.parametrize("op", OPERATORS)
def test_every_kind_of_row_at_once(op):
    """One fixed column holding each kind of value the strategy draws."""
    column = [
        3, 2.5, "12", "1e3", " 7 ", "nan", "inf", "tcp", "", True, b"12", b"xy",
        None, 2**53 + 1, ABSENT,
    ]
    pairs = list(zip(column, reversed(column)))
    executor = _executor(pairs)
    store = executor.store.node_store(NODE)
    for right in (Constant(7), Constant("7"), Constant("tcp"), Constant(2.5),
                  Constant(None), AttributeRef(RIGHT)):
        pred = Predicate(AttributeRef(LEFT), op, right)
        assert executor._local_scan(NODE, pred) == reference_scan(store, op, LEFT, right)

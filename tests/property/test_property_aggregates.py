"""Property test: aggregates over the column's fixed-point table ≡ the
per-sample conversion they replaced.

``QueryExecutor.aggregate`` and ``aggregate_grouped`` read each row's
fixed-point integer from the per-epoch column.  The reference below is the
rule they ran before: a list of the matching samples in glsn order, then
``_scaled_values`` over it (one ``_scaled_int`` per sample), kept here
verbatim.  The value must be equal and of the same type (``int`` exactly
when every sample is an ``int``), and a column the conversion fails on
must fail the aggregate with the same error: same type, same message, so
the same first offending row in glsn order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit.executor import QueryExecutor
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.errors import AuditError
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.smc.base import SmcContext

NODE, MEASURE, FILTER = "P1", "C2", "C5"  # two attributes of one fragment
OPS = ["sum", "count", "max", "min"]

SCHEMA = paper_table1_schema()
PLAN = paper_fragment_plan(SCHEMA)
ACC = AccumulatorParams.generate(128, DeterministicRng(b"aggregate-scan"))

_NUMERIC_SCALE = 100


def _scaled_int(value) -> int:
    number = float(value)
    scaled = round(number * _NUMERIC_SCALE)
    if scaled < 0:
        raise AuditError(
            f"ordered cross comparison requires non-negative values, got {value}"
        )
    return scaled


def _scaled_values(attribute: str, node_id: str, values) -> list[int]:
    try:
        return [_scaled_int(value) for value in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise AuditError(
            f"aggregate over {attribute!r} needs numeric values, but "
            f"{node_id} holds a non-numeric one"
        ) from exc


def _unscaled(scaled: int, samples) -> object:
    if all(isinstance(sample, int) for sample in samples):
        return scaled // _NUMERIC_SCALE
    return scaled / _NUMERIC_SCALE


def reference_aggregate(executor, op, attribute, below):
    """One owner's aggregate as a listcomp over its fragments in glsn order,
    of the rows whose ``FILTER`` is under ``below`` when that is given."""
    fragments = list(executor.store.node_store(NODE).scan())
    matching = None
    if below is not None:
        matching = {
            frag.glsn for frag in fragments if frag.values.get(FILTER, below) < below
        }
    owner = PLAN.home_of(attribute)
    vals = [
        frag.values[attribute]
        for frag in executor.store.node_store(owner).scan()
        if attribute in frag.values and (matching is None or frag.glsn in matching)
    ]
    if op == "count":
        return len(vals)
    if op == "sum":
        return _unscaled(sum(_scaled_values(attribute, owner, vals)), vals)
    if not vals:
        return None
    fold = max if op == "max" else min
    return _unscaled(fold(_scaled_values(attribute, owner, vals)), vals)


def reference_grouped(executor, op, measure, group_by):
    """``aggregate_grouped``'s per-group samples, again as listcomps."""
    fragments = list(executor.store.node_store(NODE).scan())
    groups: dict = {}
    for frag in fragments:
        if group_by in frag.values:
            groups.setdefault(frag.values[group_by], []).append(frag.glsn)
    out = {}
    for value, glsns in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        members = set(glsns)
        samples = [
            frag.values[measure]
            for frag in fragments
            if measure in frag.values and frag.glsn in members
        ]
        if op == "count":
            result = len(samples)
        elif not samples:
            result = None
        else:
            fold = {"sum": sum, "max": max, "min": min}[op]
            result = _unscaled(fold(_scaled_values(measure, NODE, samples)), samples)
        out[value] = (result, len(samples))
    return out


measures = st.one_of(
    st.integers(0, 10**6),
    st.floats(0, 1e6, allow_nan=False),
    st.sampled_from(["12", "0.5", " 7 ", "1e3", "-0", "-0.0", 0.0, -0.0, True, False]),
    # Every way the conversion fails: negative, NaN, infinite, too large
    # for a float or for the scaled integer, not a number at all.
    st.sampled_from([-1, -0.5, "-3", float("nan"), float("inf"), "inf", 10**400,
                     1e307, "tcp", "", None, b"12"]),
)
ABSENT = object()
filters = st.integers(0, 9)
rows = st.lists(
    st.tuples(st.one_of(st.just(ABSENT), measures), st.one_of(st.just(ABSENT), filters)),
    max_size=40,
)


def _executor(pairs) -> QueryExecutor:
    authority = TicketAuthority(b"aggregate-scan-master-secret-0123")
    store = DistributedLogStore(PLAN, authority, ACC)
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    records = [
        {
            "Tid": f"T{i}",  # keeps rows with neither attribute loggable
            **({} if a is ABSENT else {MEASURE: a}),
            **({} if b is ABSENT else {FILTER: b}),
        }
        for i, (a, b) in enumerate(pairs)
    ]
    if records:
        store.append_batch(records, ticket)
    ctx = SmcContext(shared_prime(64), DeterministicRng(b"aggregate-scan-ctx"))
    return QueryExecutor(store, ctx, SCHEMA)


def _outcome(compute):
    """The value with its type, or the error's type, message and cause type."""
    try:
        value = compute()
    except AuditError as exc:
        return ("error", type(exc), str(exc), type(exc.__cause__))
    return ("value", type(value), value)


@settings(max_examples=200, deadline=None)
@given(pairs=rows, op=st.sampled_from(OPS), below=st.one_of(st.none(), filters))
def test_aggregate_matches_the_per_sample_reference(pairs, op, below):
    executor = _executor(pairs)
    criterion = None if below is None else f"{FILTER} < {below}"
    want = _outcome(lambda: reference_aggregate(executor, op, MEASURE, below))
    # Twice: the second call reads the table the first one built.
    for _ in range(2):
        got = _outcome(lambda: executor.aggregate(op, MEASURE, criterion).value)
        assert got == want


@settings(max_examples=100, deadline=None)
@given(pairs=rows, op=st.sampled_from(OPS))
def test_grouped_aggregate_matches_the_per_sample_reference(pairs, op):
    executor = _executor(pairs)

    def grouped():
        out = executor.aggregate_grouped(op, MEASURE, group_by=FILTER)
        return {key: (r.value, r.matched) for key, r in out.items()}

    def typed(outcome):
        if outcome[0] == "value":  # the type of every group's value too
            return outcome + (
                {key: type(value) for key, (value, _) in outcome[2].items()},
            )
        return outcome

    want = typed(_outcome(lambda: reference_grouped(executor, op, MEASURE, FILTER)))
    assert typed(_outcome(grouped)) == want


@pytest.mark.parametrize("op", ["sum", "max", "min"])
def test_the_first_offending_row_in_glsn_order_names_the_error(op):
    """A negative row before a non-numeric one raises the negative row's
    error, and the other way round — whatever order the criterion yields."""
    for column, message in [
        ([5, -2, "tcp", 7], "non-negative values, got -2"),
        ([5, "tcp", -2, 7], "needs numeric values"),
    ]:
        executor = _executor([(value, i) for i, value in enumerate(column)])
        for criterion in (None, f"{FILTER} > 0", f"{FILTER} < 9"):
            with pytest.raises(AuditError, match=message):
                executor.aggregate(op, MEASURE, criterion)
        # A criterion that leaves the offending rows out aggregates cleanly.
        assert executor.aggregate(op, MEASURE, f"{FILTER} = 3").value == 7

"""Property-based tests for the in-process §4.1 checker.

``IntegrityChecker.check_all`` confirms every glsn with one small-exponent
batch test and bisects a failing batch down to exact ``check_glsn``
leaves; whatever the tamper set, its reports must be the exact path's.
``Fragment.canonical_bytes`` skips the ``LogRecord`` rendering when no
value is ``bytes``; its output must not change by a byte.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto import AccumulatorParams, DeterministicRng, Operation, TicketAuthority
from repro.logstore import DistributedLogStore, paper_fragment_plan, paper_table1_schema
from repro.logstore.fragmentation import Fragment
from repro.logstore.integrity import IntegrityChecker
from repro.logstore.records import LogRecord
from repro.workloads import paper_table1_rows

PLAN = paper_fragment_plan(paper_table1_schema())
NODES = sorted(PLAN.node_ids)
PARAMS = AccumulatorParams.generate(128, DeterministicRng(b"prop-integrity"))
AUTHORITY = TicketAuthority(b"prop-integrity-master-secret-32b")
TICKET = AUTHORITY.issue("U1", {Operation.WRITE})
TABLE = paper_table1_rows()


def build(count: int) -> DistributedLogStore:
    store = DistributedLogStore(PLAN, AUTHORITY, PARAMS)
    rows = [{**TABLE[i % len(TABLE)], "Tid": f"T{i:05d}"} for i in range(count)]
    store.append_batch(rows, TICKET)
    return store


@st.composite
def tampered_stores(draw):
    """A store of 1–60 glsns with changed values, lost fragments and
    minority (one node per glsn) anchor rewrites, from none to every glsn."""
    count = draw(st.integers(1, 60))
    store = build(count)
    glsns = store.glsns
    n = PARAMS.n
    every = draw(st.sampled_from([None, "value", "lost", "anchor"]))
    actions = draw(
        st.lists(
            st.tuples(
                st.integers(0, count - 1),
                st.sampled_from(["value", "lost", "anchor"]),
                st.sampled_from(NODES),
            ),
            max_size=12,
        )
    )
    if every is not None:
        actions += [(at, every, NODES[at % len(NODES)]) for at in range(count)]
    rewritten = set()
    for at, kind, node_id in actions:
        glsn, node = glsns[at], store.node_store(node_id)
        if glsn not in node._fragments:
            continue  # already lost here
        if kind == "value":
            attribute = draw(st.sampled_from(PLAN.assignment[node_id]))
            node.tamper(glsn, attribute, draw(st.text(max_size=6) | st.integers()))
        elif kind == "lost":
            node.evict(glsn)
        elif glsn not in rewritten:
            rewritten.add(glsn)
            anchor = node._accumulators[glsn]
            node._accumulators[glsn] = draw(
                st.sampled_from([0, anchor + n, n - anchor, anchor + 2])
                | st.integers(0, 2 * n)
            )
    return store


@settings(max_examples=60, deadline=None)
@given(store=tampered_stores())
def test_batched_check_all_equals_the_exact_path(store):
    checker = IntegrityChecker(store)
    batched = checker.check_all()
    exact = [checker.check_glsn(glsn) for glsn in store.glsns]
    assert [(r.glsn, r.ok, r.expected) for r in batched] == [
        (r.glsn, r.ok, r.expected) for r in exact
    ]
    for got, want in zip(batched, exact):
        if not want.ok:
            assert got.observed == want.observed


value_strategy = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
    | st.binary(max_size=12)
)


@settings(max_examples=200)
@given(
    glsn=st.integers(0, 1 << 64),
    node_id=st.text(min_size=1, max_size=4),
    values=st.dictionaries(st.text(max_size=6), value_strategy, max_size=6),
)
def test_fragment_canonical_bytes_are_the_record_rendering(glsn, node_id, values):
    fragment = Fragment(glsn=glsn, node_id=node_id, values=values)
    record = LogRecord(glsn=glsn, values=values)
    assert fragment.canonical_bytes() == (
        node_id.encode("utf-8") + b"|" + record.canonical_bytes()
    )

"""Property-based tests for the audit query pipeline.

Random criteria over a random fragmented store must always produce the
same glsn sets as the centralized oracle, and normalization must never
change query semantics.
"""

from hypothesis import given, settings, strategies as st

from repro.audit.normalize import to_conjunctive_form
from repro.audit.parser import parse_criterion
from repro.audit.planner import plan_query
from repro.baseline.centralized import CentralizedAuditor
from repro.crypto import AccumulatorParams, DeterministicRng, Operation, TicketAuthority
from repro.crypto.pohlig_hellman import shared_prime
from repro.audit.executor import QueryExecutor
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.records import LogRecord
from repro.logstore.schema import Attribute, AttributeKind, GlobalSchema
from repro.logstore.store import DistributedLogStore
from repro.net.simnet import SimNetwork
from repro.obs.tracer import Tracer
from repro.smc.base import SmcContext
from repro.smc.intersection import secure_set_intersection
from tests.plan_steps import bound_runs, traced_runs

PRIME = shared_prime(64)

SCHEMA = GlobalSchema(
    [
        Attribute("a", AttributeKind.INTEGER),
        Attribute("b", AttributeKind.INTEGER),
        Attribute("s", AttributeKind.TEXT),
        Attribute("C1", AttributeKind.UNDEFINED),
    ]
)
PLAN = FragmentPlan(SCHEMA, {"P0": ["a", "s"], "P1": ["b", "C1"]})


def build_stores(rows, plan=PLAN):
    authority = TicketAuthority(b"property-audit-master-secret!!!!")
    store = DistributedLogStore(
        plan, authority, AccumulatorParams.generate(128, DeterministicRng(b"pa"))
    )
    ticket = authority.issue("U", {Operation.READ, Operation.WRITE})
    receipts = store.append_batch(rows, ticket)
    oracle = CentralizedAuditor(plan.schema)
    for receipt, row in zip(receipts, rows):
        oracle.ingest(LogRecord(receipt.glsn, row))
    return store, oracle


row_strategy = st.fixed_dictionaries(
    {
        "a": st.integers(0, 9),
        "b": st.integers(0, 9),
        "s": st.sampled_from(["x", "y", "z"]),
        "C1": st.integers(0, 9),
    }
)

# Random criterion builder: comparisons over the four attributes with
# constants in-range, combined with and/or/not up to depth 2.
predicate = st.builds(
    lambda attr, op, const: f"{attr} {op} {const}",
    st.sampled_from(["a", "b", "C1"]),
    st.sampled_from(["<", ">", "=", "!=", "<=", ">="]),
    st.integers(0, 9),
) | st.builds(
    lambda op, const: f"s {op} '{const}'",
    st.sampled_from(["=", "!="]),
    st.sampled_from(["x", "y", "z"]),
) | st.builds(
    lambda left, op, right: f"{left} {op} {right}",
    st.sampled_from(["a", "b"]),
    st.sampled_from(["=", "<", ">"]),
    st.sampled_from(["a", "b", "C1"]),
)


def combine(children):
    inner = " and ".join(f"({c})" for c in children[: len(children) // 2 + 1])
    outer = " or ".join(f"({c})" for c in children[len(children) // 2 + 1 :])
    if inner and outer:
        return f"({inner}) or ({outer})"
    return inner or outer


criterion_strategy = st.one_of(
    predicate,
    st.builds(lambda p: f"not ({p})", predicate),
    st.builds(combine, st.lists(predicate, min_size=2, max_size=4)),
)


class TestExecutorAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(row_strategy, min_size=1, max_size=8),
        criterion=criterion_strategy,
        seed=st.integers(0, 999),
    )
    def test_confidential_equals_centralized(self, rows, criterion, seed):
        # Skip self-comparisons on identical attribute (a = a is legal but
        # trivially true; still valid — no skip needed).
        store, oracle = build_stores(rows)
        executor = QueryExecutor(
            store, SmcContext(PRIME, DeterministicRng(seed)), SCHEMA
        )
        assert executor.execute(criterion).glsns == oracle.execute(criterion)


class TestNormalizationProperties:
    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(row_strategy, min_size=1, max_size=6), criterion=criterion_strategy)
    def test_cnf_preserves_semantics(self, rows, criterion):
        node = parse_criterion(criterion, SCHEMA)
        form = to_conjunctive_form(node)
        _, oracle = build_stores(rows)
        direct = oracle.execute(criterion)
        # Execute the CNF rendering through the oracle as well.
        normalized = oracle.execute(str(form))
        assert direct == normalized

    @settings(max_examples=50, deadline=None)
    @given(criterion=criterion_strategy)
    def test_cnf_counts_consistent(self, criterion):
        form = to_conjunctive_form(parse_criterion(criterion, SCHEMA))
        assert form.q >= 1
        assert form.s >= form.q  # every clause has at least one predicate


# -- cross predicates over dense and sparse logs ------------------------------
#
# The paper's plan: C1@P3, C5@P1, and a local clause on either party of
# C1 ? C5 (C2@P1, protocl@P3), on a third node (C3@P2), or none.  Rows may
# lack C1 or C5, so both alignment routes of the executor are drawn.

PAPER_SCHEMA = paper_table1_schema()
PAPER_PLAN = paper_fragment_plan(PAPER_SCHEMA)
PARENT_CATEGORIES = {
    "set_size", "result_cardinality", "position_linkage", "order_statistics",
}

sparse_row = st.fixed_dictionaries(
    {"C2": st.integers(0, 9), "protocl": st.sampled_from(["tcp", "udp"]),
     "C3": st.sampled_from(["x", "y"])},
    optional={"C1": st.integers(0, 9), "C5": st.integers(0, 9)},
)
dense_row = st.fixed_dictionaries(
    {"C1": st.integers(0, 9), "C5": st.integers(0, 9), "C2": st.integers(0, 9),
     "protocl": st.sampled_from(["tcp", "udp"]), "C3": st.sampled_from(["x", "y"])}
)
LOCAL_CLAUSES = {
    None: lambda row: True,
    "C2 < 5": lambda row: row["C2"] < 5,
    "protocl = 'tcp'": lambda row: row["protocl"] == "tcp",
    "C3 = 'x'": lambda row: row["C3"] == "x",
}
CROSS_OPS = {
    "<": lambda a, b: a < b, ">": lambda a, b: a > b, "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b, "!=": lambda a, b: a != b,
}


class TestCrossAlignmentAgainstOracle:
    # Two fifths of the profile's examples: 40 by default, 400 under ``ci``.
    @settings(max_examples=max(settings().max_examples * 2 // 5, 5), deadline=None)
    @given(
        rows=st.lists(dense_row, min_size=1, max_size=8)
        | st.lists(sparse_row, min_size=1, max_size=8),
        op=st.sampled_from(sorted(CROSS_OPS)),
        local=st.sampled_from(list(LOCAL_CLAUSES)),
        local_first=st.booleans(),
        seed=st.integers(0, 999),
    )
    def test_query_equals_plaintext_oracle(self, rows, op, local, local_first, seed):
        store, _ = build_stores(rows, PAPER_PLAN)
        glsns = store.glsns  # allocated in append order
        ctx = SmcContext(PRIME, DeterministicRng(seed), tracer=Tracer())
        executor = QueryExecutor(store, ctx, PAPER_SCHEMA)
        clauses = [f"C1 {op} C5"] + ([local] if local else [])
        if local_first:
            clauses.reverse()

        qplan = plan_query(" and ".join(clauses), PAPER_SCHEMA, PAPER_PLAN)
        bound = bound_runs(executor._bind(qplan))
        result = executor.execute(qplan)
        # With no clause empty the protocols run are the bound steps', in
        # order; else the steps run are the bound ones up to the empty one.
        ran = traced_runs(ctx.tracer.finished_spans())
        if all(result.subquery_glsns.values()):
            assert ran == bound
        else:
            assert [r[:3] for r in ran] == [b[:3] for b in bound[: len(ran)]]

        assert result.glsns == [
            glsn for glsn, row in zip(glsns, rows)
            if "C1" in row and "C5" in row
            and CROSS_OPS[op](row["C1"], row["C5"]) and LOCAL_CLAUSES[local](row)
        ]
        assert ctx.leakage.categories() <= PARENT_CATEGORIES

        # Whichever representation the executor chose, the aligned set is
        # what the presence intersection alone computes.
        qplan = plan_query("C1 < C5", PAPER_SCHEMA, PAPER_PLAN)
        (step,) = executor._bind(qplan).clauses[0].steps
        common = executor._common_glsns(step, SimNetwork())
        present = {node: set(column.raw) for node, column in zip(step.nodes, step.columns)}
        presence = secure_set_intersection(
            SmcContext(PRIME, DeterministicRng(seed + 1)),
            {"P3": sorted(present["P3"]), "P1": sorted(present["P1"])},
        )
        assert common == set(presence.any_value)

"""Tests for query planning and distributed confidential execution."""

import pytest

from repro.audit.executor import QueryExecutor
from repro.audit.planner import plan_query
from repro.baseline.centralized import CentralizedAuditor
from repro.crypto import DeterministicRng
from repro.errors import AuditError, PlanningError
from repro.logstore.records import LogRecord
from repro.net.simnet import SimNetwork
from repro.smc.base import SmcContext
from repro.workloads import paper_table1_rows


@pytest.fixture()
def executor(populated_store, table1_schema, prime64):
    store, _, _ = populated_store
    ctx = SmcContext(prime64, DeterministicRng(b"exec"))
    return QueryExecutor(store, ctx, table1_schema)


@pytest.fixture()
def oracle(populated_store, table1_schema):
    """Centralized evaluation over the same data = ground truth."""
    _, _, receipts = populated_store
    auditor = CentralizedAuditor(table1_schema)
    for receipt, row in zip(receipts, paper_table1_rows()):
        auditor.ingest(LogRecord(receipt.glsn, row))
    return auditor


CRITERIA = [
    "C1 > 30",
    "C1 <= 20",
    "protocl = 'UDP'",
    "protocl != 'UDP'",
    "Tid = 'T1100265'",
    "id = 'U1' and protocl = 'UDP'",
    "C1 > 30 and protocl = 'UDP'",
    "C1 > 50 or id = 'U1'",
    "not (protocl = 'UDP')",
    "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267'",
    "C1 < C2",
    "C2 < C1",
    "C1 >= C1",
    "Tid = id",
    "not (C1 < C2)",
    "C1 > 10 and C1 < 50 and protocl = 'UDP'",
]


class TestPlanShape:
    def test_strategies_assigned(self, table1_schema, table1_plan):
        plan = plan_query("C1 < C2 and Tid = 'T'", table1_schema, table1_plan)
        prims = {s.primitive for s in plan.strategies.values()}
        assert prims == {"scmp", "scan"}

    def test_cross_equality_uses_ssi(self, table1_schema, table1_plan):
        plan = plan_query("Tid = id", table1_schema, table1_plan)
        assert next(iter(plan.strategies.values())).primitive == "ssi"

    def test_metrics_stq(self, table1_schema, table1_plan):
        plan = plan_query(
            "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267' and C1 < C2",
            table1_schema,
            table1_plan,
        )
        assert (plan.s, plan.t, plan.q) == (4, 1, 3)

    def test_describe_mentions_final_intersection(self, table1_schema, table1_plan):
        plan = plan_query("C1 > 1 and Tid = 'T'", table1_schema, table1_plan)
        assert "secure set intersection" in plan.describe()

    def test_describe_names_holders_and_where_clauses_are_conjoined(
        self, table1_schema, table1_plan
    ):
        # C1@P3, C5@P1, C2@P1, C3@P2: the cut shares P1 with the cross
        # clause, the label does not.
        shared = plan_query("C1 > C5 and C2 < 4", table1_schema, table1_plan)
        assert "C1 > C5 -> held by P3 or P1" in shared.describe()
        assert "final: local conjunction on glsn: (SQ13 & SQ1)@P1" in shared.describe()
        assert "secure set intersection" not in shared.describe()
        assert not shared.needs_final_intersection
        apart = plan_query("C3 = 'x' and C1 > C5", table1_schema, table1_plan)
        assert "final: secure set intersection on glsn: SQ0 ∩ SQ13" in apart.describe()
        assert apart.needs_final_intersection
        three = plan_query(
            "C2 < 4 and C5 > 1 and C3 = 'x'", table1_schema, table1_plan
        )
        assert (
            "final: secure set intersection on glsn: (SQ0 & SQ1)@P1 ∩ SQ2"
            in three.describe()
        )

    def test_anchors_do_not_depend_on_clause_order(self, table1_schema, table1_plan):
        for text in ("C1 > C5 and C2 < 4", "C2 < 4 and C1 > C5"):
            plan = plan_query(text, table1_schema, table1_plan)
            assert set(plan._anchors().values()) == {"P1"}
        # Nobody else to join: the left party, as before.
        alone = plan_query("C1 > C5 and C3 = 'x'", table1_schema, table1_plan)
        assert sorted(alone._anchors().values()) == ["P2", "P3"]
        # A disjunction's union is delivered to one node only.
        union = plan_query(
            "(C1 > C5 or C3 = 'x') and C2 < 4", table1_schema, table1_plan
        )
        assert sorted(union._anchors().values()) == ["P1", "P2"]

    def test_single_clause_no_final(self, table1_schema, table1_plan):
        plan = plan_query("C1 > 1", table1_schema, table1_plan)
        assert not plan.needs_final_intersection

    def test_ordered_cross_on_text_rejected(self, table1_schema, table1_plan):
        with pytest.raises(PlanningError):
            plan_query("protocl < id", table1_schema, table1_plan)


class TestExecutionAgainstOracle:
    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_matches_centralized(self, executor, oracle, criterion):
        confidential = executor.execute(criterion).glsns
        centralized = oracle.execute(criterion)
        assert confidential == centralized, criterion

    def test_result_reports_cost(self, executor):
        # C1 lives on P3, Tid on P2: the conjunction crosses nodes and must
        # go through the secure set intersection (real traffic).
        result = executor.execute("C1 > 30 and Tid = 'T1100265'")
        assert result.messages > 0 and result.bytes > 0

    def test_spans_say_how_the_query_was_aligned_and_conjoined(
        self, populated_store, table1_schema, prime64
    ):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        store, _, receipts = populated_store
        ctx = SmcContext(prime64, DeterministicRng(b"spans"), tracer=tracer)
        traced = QueryExecutor(store, ctx, table1_schema)

        def spans(name):
            return [s for s in tracer.finished_spans() if s.name == name]

        # C1@P3 against C2@P1, both in every Table 1 row; id lives on P1 too.
        traced.execute("C1 < C2 and id = 'U1'")
        (cross,) = [s for s in spans("query.predicate") if s.attributes["primitive"] == "scmp"]
        assert cross.attributes["alignment"] == "absent-union"
        assert cross.attributes["index_agree"] is True
        assert cross.attributes["absent_sizes"] == {"P3": 0, "P1": 0}
        assert cross.attributes["modexp"] == 0
        assert spans("query.execute")[-1].attributes["conjunction"] == "local@P1"

        # Tid lives on P2: a ring between the two anchors.
        traced.execute("C1 < C2 and Tid != 'none'")
        assert spans("query.execute")[-1].attributes["conjunction"] == "ssi"

        # A node that lost a fragment no longer shares the index.
        store.node_store("P1").evict(receipts[0].glsn)
        traced.execute("C1 < C2")
        cross = [s for s in spans("query.predicate") if s.attributes["primitive"] == "scmp"][-1]
        assert cross.attributes["alignment"] == "present-intersection"
        assert cross.attributes["index_agree"] is False
        assert cross.attributes["modexp"] > 0

    def test_local_only_query_no_messages(self, executor):
        result = executor.execute("C1 > 30")
        assert result.messages == 0  # evaluated entirely at P3

    def test_subquery_breakdown(self, executor):
        result = executor.execute("C1 > 30 and protocl = 'UDP'")
        assert set(result.subquery_glsns) == {"SQ0", "SQ1"}

    def test_shared_net_accumulates(self, executor):
        net = SimNetwork()
        executor.execute("Tid = id", net=net)
        first = net.stats.messages
        executor.execute("C1 < C2", net=net)
        assert net.stats.messages > first


class TestAggregates:
    def test_sum(self, executor, oracle):
        assert executor.aggregate("sum", "C1").value == oracle.aggregate("sum", "C1")

    def test_sum_with_criterion(self, executor, oracle):
        criterion = "protocl = 'UDP'"
        assert (
            executor.aggregate("sum", "C1", criterion).value
            == oracle.aggregate("sum", "C1", criterion)
        )

    def test_count(self, executor, oracle):
        assert (
            executor.aggregate("count", "C2", "C1 > 30").value
            == oracle.aggregate("count", "C2", "C1 > 30")
        )

    def test_max_min(self, executor, oracle):
        assert executor.aggregate("max", "C2").value == pytest.approx(
            oracle.aggregate("max", "C2")
        )
        assert executor.aggregate("min", "C1").value == oracle.aggregate("min", "C1")

    def test_max_reports_holder(self, executor):
        result = executor.aggregate("max", "C2")
        assert result.holder == "P1"  # single owner of C2

    def test_empty_match(self, executor):
        result = executor.aggregate("max", "C1", "C1 > 100000")
        assert result.value is None and result.matched == 0

    def test_decimal_sum(self, executor, oracle):
        mine = executor.aggregate("sum", "C2").value
        truth = oracle.aggregate("sum", "C2")
        assert mine == pytest.approx(truth, abs=0.01)

    def test_unknown_op(self, executor):
        with pytest.raises(AuditError):
            executor.aggregate("median", "C1")


class TestMultiOwnerAggregates:
    """Replicated (overlapping) plans engage the SMC combine paths."""

    @pytest.fixture()
    def replicated(self, table1_schema, ticket_authority, prime64):
        from repro.crypto import AccumulatorParams, Operation
        from repro.logstore.fragmentation import FragmentPlan
        from repro.logstore.store import DistributedLogStore

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
            plan,
            ticket_authority,
            AccumulatorParams.generate(128, DeterministicRng(b"repl")),
        )
        ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
        store.append_batch(paper_table1_rows(), ticket)
        ctx = SmcContext(prime64, DeterministicRng(b"repl-ctx"))
        return QueryExecutor(store, ctx, table1_schema)

    def test_count_distinct_under_replication(self, replicated):
        assert replicated.aggregate("count", "C1").value == 5

    def test_max_ranking_under_replication(self, replicated):
        result = replicated.aggregate("max", "C1")
        assert result.value == 53

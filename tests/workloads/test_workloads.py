"""Tests for the synthetic workload generators."""

import pytest

from repro.audit.parser import parse_criterion
from repro.audit.planner import plan_query
from repro.logstore import Attribute, AttributeKind, GlobalSchema, round_robin_plan
from repro.workloads import (
    ORDER_TYPE,
    EcommerceWorkload,
    IntrusionWorkload,
    LibraryWorkload,
    WorkloadGenerator,
    paper_table1_rows,
)


class TestEcommerce:
    def test_table1_rows_exact(self):
        rows = paper_table1_rows()
        assert len(rows) == 5
        assert rows[0]["Tid"] == "T1100265"
        assert rows[4]["C3"] == "account"
        assert rows[3] == {
            "Time": "20:23:38/05/12/20", "id": "U2", "protocl": "TCP",
            "Tid": "T1100265", "C1": 18, "C2": "45.02", "C3": "salary",
        }

    def test_transactions_well_formed(self):
        workload = EcommerceWorkload()
        for t in workload.transactions(10):
            assert t.conforms_to(ORDER_TYPE)
            assert len(t.executors) == 2  # buyer != seller

    def test_deterministic(self):
        a = EcommerceWorkload(seed=3).transactions(5)
        b = EcommerceWorkload(seed=3).transactions(5)
        assert [t.tsn for t in a] == [t.tsn for t in b]

    def test_unique_tsns(self):
        ts = EcommerceWorkload().transactions(50)
        assert len({t.tsn for t in ts}) == 50

    def test_tampered_stream(self):
        workload = EcommerceWorkload()
        ts = workload.tampered_transactions(9, drop_confirm_every=3)
        broken = [t for t in ts if len(t.events) == 1]
        assert len(broken) == 3

    def test_flat_rows_schema_compatible(self, table1_schema):
        rows = EcommerceWorkload().flat_rows(4)
        assert len(rows) == 8  # two events per transaction
        for row in rows:
            table1_schema.validate_values(row)


class TestIntrusion:
    def test_benign_rows(self, table1_schema):
        workload = IntrusionWorkload()
        rows = workload.benign_rows(20)
        assert len(rows) == 20
        for row in rows:
            table1_schema.validate_values(row)
            assert row["C1"] <= 10

    def test_probe_campaign_shape(self):
        workload = IntrusionWorkload()
        rows, campaign = workload.probe_campaign(events_per_host=3)
        assert len(rows) == campaign.total_events == 3 * len(workload.hosts)
        scores = {row["C2"] for row in rows}
        assert scores == {campaign.attacker}  # common fingerprint

    def test_stuffing_under_local_threshold(self):
        workload = IntrusionWorkload()
        rows, campaign = workload.credential_stuffing(per_host=2)
        per_host = {}
        for row in rows:
            per_host[row["id"]] = per_host.get(row["id"], 0) + 1
        assert all(count == 2 for count in per_host.values())
        assert campaign.total_events == 2 * len(workload.hosts)

    def test_mixed_trace_deterministic(self):
        a, _ = IntrusionWorkload(seed=9).mixed_trace()
        b, _ = IntrusionWorkload(seed=9).mixed_trace()
        assert a == b


class TestLibrary:
    def test_rows_and_ground_truth(self, table1_schema):
        workload = LibraryWorkload()
        rows = workload.activity_rows(60)
        for row in rows:
            table1_schema.validate_values(row)
        counts = workload.per_branch_counts(rows, "search")
        assert sum(counts.values()) == sum(1 for r in rows if r["C3"] == "search")
        located = workload.per_branch_records_located(rows)
        assert sum(located.values()) == sum(
            r["C1"] for r in rows if r["C3"] == "search"
        )

    def test_non_search_locates_nothing(self):
        rows = LibraryWorkload().activity_rows(60)
        assert all(r["C1"] == 0 for r in rows if r["C3"] != "search")


def _schema(defined: int, undefined: int) -> GlobalSchema:
    """``defined`` typed attributes (int, text, int, ...) and ``undefined``
    opaque ones."""
    kinds = [AttributeKind.INTEGER, AttributeKind.TEXT]
    return GlobalSchema(
        [Attribute(f"a{i}", kinds[i % 2]) for i in range(defined)]
        + [Attribute(f"C{i + 1}", AttributeKind.UNDEFINED) for i in range(undefined)]
    )


class TestGenerator:
    def test_criteria_parse_and_plan(self):
        generator = WorkloadGenerator()
        schema = _schema(4, 4)
        plan = round_robin_plan(schema, ["P0", "P1", "P2", "P3"])
        for _ in range(10):
            criterion = generator.criterion_mix(schema, plan, clauses=3)
            parse_criterion(criterion, schema)
            plan_query(criterion, schema, plan)

    def test_cross_criterion_really_crosses(self):
        generator = WorkloadGenerator()
        schema = _schema(6, 6)
        plan = round_robin_plan(schema, ["P0", "P1", "P2", "P3"])
        criterion = generator.cross_criterion(schema, plan)
        qplan = plan_query(criterion, schema, plan)
        assert qplan.t == 1

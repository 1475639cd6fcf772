"""Tests for glsn allocation and vertical fragmentation."""

import pytest

from repro.errors import (
    ConfigurationError,
    FragmentationError,
    UnknownAttributeError,
)
from repro.logstore.fragmentation import (
    FragmentPlan,
    paper_fragment_plan,
    round_robin_plan,
)
from repro.logstore.glsn import PAPER_GLSN_START, GlsnAllocator
from repro.logstore.records import LogRecord
from repro.logstore.schema import Attribute, AttributeKind, GlobalSchema


class TestGlsnAllocator:
    def test_monotone_unique(self):
        alloc = GlsnAllocator()
        values = [alloc.allocate() for _ in range(100)]
        assert values == sorted(values)
        assert len(set(values)) == 100

    def test_paper_start(self):
        assert GlsnAllocator().allocate() == PAPER_GLSN_START

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            GlsnAllocator(start=-1)


@pytest.fixture()
def simple_schema():
    return GlobalSchema(
        [
            Attribute("a", AttributeKind.INTEGER),
            Attribute("b", AttributeKind.TEXT),
            Attribute("C1", AttributeKind.UNDEFINED),
            Attribute("C2", AttributeKind.UNDEFINED),
        ]
    )


class TestFragmentPlan:
    def test_cover_required(self, simple_schema):
        with pytest.raises(FragmentationError):
            FragmentPlan(simple_schema, {"P0": ["a", "b"], "P1": ["C1"]})

    def test_disjoint_required_by_default(self, simple_schema):
        with pytest.raises(FragmentationError):
            FragmentPlan(
                simple_schema,
                {"P0": ["a", "b", "C1"], "P1": ["C1", "C2"]},
            )

    def test_overlap_opt_in(self, simple_schema):
        plan = FragmentPlan(
            simple_schema,
            {"P0": ["a", "b", "C1"], "P1": ["C1", "C2"]},
            allow_overlap=True,
        )
        assert plan.owners_of("C1") == ["P0", "P1"]
        assert plan.home_of("C1") == "P0"

    def test_unknown_attribute_rejected(self, simple_schema):
        with pytest.raises(UnknownAttributeError):
            FragmentPlan(simple_schema, {"P0": ["a", "b", "C1", "C2", "ghost"]})

    def test_duplicate_in_node_rejected(self, simple_schema):
        with pytest.raises(FragmentationError):
            FragmentPlan(simple_schema, {"P0": ["a", "a", "b", "C1", "C2"]})

    def test_empty_plan_rejected(self, simple_schema):
        with pytest.raises(FragmentationError):
            FragmentPlan(simple_schema, {})


class TestFragmentation:
    @pytest.fixture()
    def plan(self, simple_schema):
        return FragmentPlan(simple_schema, {"P0": ["a", "b"], "P1": ["C1", "C2"]})

    def test_fragment_and_reassemble(self, plan):
        record = LogRecord(7, {"a": 1, "b": "x", "C1": 9, "C2": 8})
        fragments = plan.fragment(record)
        assert set(fragments) == {"P0", "P1"}
        assert fragments["P0"].values == {"a": 1, "b": "x"}
        assert fragments["P1"].values == {"C1": 9, "C2": 8}
        restored = plan.reassemble(list(fragments.values()))
        assert restored.glsn == 7 and restored.values == record.values

    def test_no_node_sees_everything(self, plan):
        record = LogRecord(7, {"a": 1, "b": "x", "C1": 9, "C2": 8})
        fragments = plan.fragment(record)
        for fragment in fragments.values():
            assert set(fragment.values) != set(record.values)

    def test_sparse_record(self, plan):
        record = LogRecord(8, {"a": 1})
        fragments = plan.fragment(record)
        assert fragments["P0"].values == {"a": 1}
        assert fragments["P1"].values == {}
        assert plan.reassemble(list(fragments.values())).values == {"a": 1}

    def test_reassemble_mixed_glsn_rejected(self, plan):
        r1 = plan.fragment(LogRecord(1, {"a": 1}))
        r2 = plan.fragment(LogRecord(2, {"a": 2}))
        with pytest.raises(FragmentationError):
            plan.reassemble([r1["P0"], r2["P1"]])

    def test_reassemble_empty_rejected(self, plan):
        with pytest.raises(FragmentationError):
            plan.reassemble([])

    def test_conflicting_replicas_detected(self, simple_schema):
        plan = FragmentPlan(
            simple_schema,
            {"P0": ["a", "b", "C1"], "P1": ["C1", "C2"]},
            allow_overlap=True,
        )
        frags = plan.fragment(LogRecord(3, {"C1": 5}))
        import dataclasses

        bad = dataclasses.replace(frags["P1"], values={"C1": 999})
        with pytest.raises(FragmentationError):
            plan.reassemble([frags["P0"], bad])

    def test_fragment_canonical_bytes_node_scoped(self, plan):
        record = LogRecord(9, {"a": 1, "C1": 2})
        frags = plan.fragment(record)
        assert frags["P0"].canonical_bytes() != frags["P1"].canonical_bytes()


class TestMinimumCover:
    def test_paper_plan_cover(self, table1_schema, table1_plan):
        # Time lives only on P0.
        assert table1_plan.minimum_cover_count(["Time"]) == 1
        # Time + id needs P0 and P1.
        assert table1_plan.minimum_cover_count(["Time", "id"]) == 2
        # Full Table 1 row needs all four nodes.
        row = ["Time", "id", "protocl", "Tid", "C1", "C2", "C3"]
        assert table1_plan.minimum_cover_count(row) == 4

    def test_empty(self, table1_plan):
        assert table1_plan.minimum_cover_count([]) == 0

    def test_overlap_reduces_cover(self, simple_schema):
        plan = FragmentPlan(
            simple_schema,
            {"P0": ["a", "b", "C1", "C2"], "P1": ["C1", "C2"]},
            allow_overlap=True,
        )
        assert plan.minimum_cover_count(["a", "C1", "C2"]) == 1


class TestPrebuiltPlans:
    def test_paper_plan_matches_tables_2_to_5(self, table1_schema):
        plan = paper_fragment_plan(table1_schema)
        assert plan.assignment["P0"] == ["Time", "C4"]
        assert plan.assignment["P1"] == ["id", "EID", "C2", "C5"]
        assert plan.assignment["P2"] == ["Tid", "C3", "C"]
        assert plan.assignment["P3"] == ["protocl", "ip", "C1"]

    def test_round_robin_covers(self, table1_schema):
        plan = round_robin_plan(table1_schema, ["P0", "P1", "P2"])
        covered = {a for attrs in plan.assignment.values() for a in attrs}
        assert covered == set(table1_schema.names)

    def test_round_robin_empty_nodes(self, table1_schema):
        with pytest.raises(FragmentationError):
            round_robin_plan(table1_schema, [])

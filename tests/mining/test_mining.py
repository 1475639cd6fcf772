"""Tests for the confidential data-mining subsystem."""

import pytest

from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.errors import AuditError, ProtocolAbortError
from repro.logstore.store import DistributedLogStore
from repro.mining import mine_cross_associations, secure_intersection_size
from repro.net.simnet import SimNetwork
from repro.smc.base import SmcContext


class TestIntersectionSize:
    def test_matches_plain_size(self, ctx):
        result = secure_intersection_size(
            ctx, ("A", [1, 2, 3, 4]), ("B", [3, 4, 5])
        )
        assert result.any_value == 2

    def test_both_parties_learn_same(self, ctx):
        result = secure_intersection_size(ctx, ("A", ["x", "y"]), ("B", ["y"]))
        assert result.value_for("A") == result.value_for("B") == 1

    def test_disjoint(self, ctx):
        assert secure_intersection_size(ctx, ("A", [1]), ("B", [2])).any_value == 0

    def test_identical(self, ctx):
        result = secure_intersection_size(ctx, ("A", [1, 2, 3]), ("B", [3, 2, 1]))
        assert result.any_value == 3

    def test_empty_side(self, ctx):
        assert secure_intersection_size(ctx, ("A", []), ("B", [1, 2])).any_value == 0

    def test_duplicates_collapse(self, ctx):
        result = secure_intersection_size(ctx, ("A", [1, 1, 2]), ("B", [1]))
        assert result.any_value == 1

    def test_four_messages(self, ctx):
        net = SimNetwork()
        secure_intersection_size(ctx, ("A", [1, 2]), ("B", [2, 3]), net=net)
        assert net.stats.messages == 4  # 2× single + 2× double

    def test_leakage_sizes_only(self, ctx):
        secure_intersection_size(ctx, ("A", [1, 2]), ("B", [2]))
        assert ctx.leakage.categories() == {"set_size", "result_cardinality"}

    def test_loss_aborts(self, ctx):
        from repro.net.faults import FaultPlan

        net = SimNetwork(
            faults=FaultPlan(drop_rate=1.0, rng=DeterministicRng(b"drop"))
        )
        with pytest.raises(ProtocolAbortError):
            secure_intersection_size(ctx, ("A", [1]), ("B", [1]), net=net)

    @pytest.mark.parametrize(
        "left,right",
        [([1, 2, 3], [2, 3, 4]), (list(range(20)), list(range(10, 30))), ([], [])],
    )
    def test_property_sample(self, ctx, left, right):
        expected = len(set(left) & set(right))
        result = secure_intersection_size(ctx, ("A", left), ("B", right))
        assert result.any_value == expected


@pytest.fixture()
def mining_store(table1_schema, table1_plan, ticket_authority):
    """Protocol (P3) vs business label (C3 on P2) with clear associations."""
    store = DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"mine")),
    )
    ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
    rows = (
        [{"protocl": "UDP", "C3": "order"}] * 4      # strong UDP=>order
        + [{"protocl": "UDP", "C3": "probe"}] * 1
        + [{"protocl": "TCP", "C3": "probe"}] * 3    # strong TCP=>probe
        + [{"protocl": "TCP", "C3": "order"}] * 1
    )
    store.append_batch(rows, ticket)
    return store


class TestAssociationMining:
    def test_qualifying_rules_found(self, mining_store, ctx):
        rules = mine_cross_associations(
            mining_store, ctx, "protocl", "C3", min_support=3
        )
        found = {(r.value_a, r.value_b, r.support) for r in rules}
        assert found == {("UDP", "order", 4), ("TCP", "probe", 3)}

    def test_confidence(self, mining_store, ctx):
        rules = mine_cross_associations(
            mining_store, ctx, "protocl", "C3", min_support=3
        )
        udp_rule = next(r for r in rules if r.value_a == "UDP")
        assert udp_rule.confidence == pytest.approx(4 / 5)

    def test_min_confidence_filter(self, mining_store, ctx):
        rules = mine_cross_associations(
            mining_store, ctx, "protocl", "C3", min_support=1,
            min_confidence=0.6,
        )
        assert all(r.confidence >= 0.6 for r in rules)

    def test_subthreshold_pairs_never_opened(self, mining_store, ctx):
        rules = mine_cross_associations(
            mining_store, ctx, "protocl", "C3", min_support=2
        )
        pairs = {(r.value_a, r.value_b) for r in rules}
        assert ("UDP", "probe") not in pairs  # support 1 < 2
        assert ("TCP", "order") not in pairs

    def test_sorted_by_support(self, mining_store, ctx):
        rules = mine_cross_associations(
            mining_store, ctx, "protocl", "C3", min_support=1
        )
        supports = [r.support for r in rules]
        assert supports == sorted(supports, reverse=True)

    def test_same_node_rejected(self, mining_store, ctx):
        with pytest.raises(AuditError):
            mine_cross_associations(mining_store, ctx, "Tid", "C3")  # both P2

    def test_min_support_validated(self, mining_store, ctx):
        with pytest.raises(AuditError):
            mine_cross_associations(
                mining_store, ctx, "protocl", "C3", min_support=0
            )

    def test_group_size_leakage_recorded(self, mining_store, ctx):
        mine_cross_associations(mining_store, ctx, "protocl", "C3", min_support=3)
        assert "group_sizes" in ctx.leakage.categories()

    def test_matches_centralized_ground_truth(self, mining_store, ctx, table1_schema):
        """Confidential supports equal what a centralized join would find."""
        from collections import Counter

        # Reconstruct ground truth from both fragment stores directly.
        p3 = {
            f.glsn: f.values["protocl"]
            for f in mining_store.node_store("P3").scan()
            if "protocl" in f.values
        }
        p2 = {
            f.glsn: f.values["C3"]
            for f in mining_store.node_store("P2").scan()
            if "C3" in f.values
        }
        truth = Counter(
            (p3[g], p2[g]) for g in set(p3) & set(p2)
        )
        rules = mine_cross_associations(
            mining_store, ctx, "protocl", "C3", min_support=1
        )
        mined = {(r.value_a, r.value_b): r.support for r in rules}
        assert mined == dict(truth)

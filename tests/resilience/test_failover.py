"""Ring failover supervision: re-route, exclude, or fail loudly."""

import pytest

from repro.crypto.rng import DeterministicRng
from repro.errors import RingFailoverError
from repro.net.faults import FaultPlan
from repro.net.simnet import SimNetwork
from repro.resilience import (
    RetryPolicy,
    pick_coordinator,
    ring_avoiding,
    standby_id,
    supervise_ring,
)
from repro.smc.equality import secure_equality
from repro.smc.intersection import secure_set_intersection
from repro.smc.ranking import secure_ranking
from repro.smc.sum_ import secure_sum

SETS = {"P0": ["a", "b"], "P1": ["b", "c"], "P2": ["b", "d"], "P3": ["b"]}


def reliable(faults: FaultPlan | None = None) -> SimNetwork:
    return SimNetwork(resilience=RetryPolicy(), faults=faults)


class TestRingAvoiding:
    def test_no_constraints_keeps_sorted_order(self):
        assert ring_avoiding(["P2", "P0", "P1"], set()) == ["P0", "P1", "P2"]

    def test_avoids_a_forbidden_successor_edge(self):
        order = ring_avoiding(["P0", "P1", "P2"], {("P0", "P1")})
        assert sorted(order) == ["P0", "P1", "P2"]
        hops = list(zip(order, order[1:] + order[:1]))
        assert ("P0", "P1") not in hops

    def test_unsatisfiable_falls_back(self):
        # Both directions of every pair forbidden: no cycle exists.
        avoid = {
            (a, b)
            for a in ("P0", "P1", "P2")
            for b in ("P0", "P1", "P2")
            if a != b
        }
        assert sorted(ring_avoiding(["P0", "P1", "P2"], avoid)) == [
            "P0", "P1", "P2",
        ]

    def test_prefer_order_wins_when_legal(self):
        prefer = ["P2", "P0", "P1"]
        assert ring_avoiding(["P0", "P1", "P2"], set(), prefer=prefer) == prefer


class TestCoordinatorChoice:
    def test_default_wins_clean_slate(self):
        assert pick_coordinator(["P0", "P1"], set(), default="P1") == "P1"

    def test_suspect_coordinator_loses(self):
        choice = pick_coordinator(
            ["P0", "P1"], {("P2", "P1")}, default="P1"
        )
        assert choice == "P0"

    def test_empty_candidates_is_typed_error(self):
        with pytest.raises(RingFailoverError):
            pick_coordinator([], set())

    def test_standby_id_advances_past_burned_names(self):
        assert standby_id("ttp", set()) == "ttp"
        assert standby_id("ttp", {("P0", "ttp")}) == "ttp~1"
        assert standby_id("ttp", {("P0", "ttp"), ("P1", "ttp~1")}) == "ttp~2"


class TestSupervisor:
    def test_plain_net_incomplete_round_is_one_launch_then_typed(self):
        """No reliability layer, so no failed link to diagnose: a stranded
        round ends in the typed error after its single launch."""
        launches = []

        def launch(alive, avoid):
            launches.append((alive, avoid))
            return lambda: None

        with pytest.raises(RingFailoverError, match="stranded_proto") as excinfo:
            supervise_ring(SimNetwork(), "stranded_proto", ["A", "B"], launch)
        assert launches == [(["A", "B"], frozenset())]
        assert excinfo.value.skipped == () and excinfo.value.failed_links == ()

    def test_plain_net_complete_round_returns_undegraded(self):
        outcome = supervise_ring(
            SimNetwork(), "p", ["A"], lambda alive, avoid: (lambda: {"A": 1})
        )
        assert outcome.values == {"A": 1}
        assert not outcome.degraded and outcome.failovers == 0

    def test_budget_exhaustion_is_typed(self):
        """A launch that never completes and always reports the same
        failed link exhausts the failover budget with a typed error."""
        net = reliable()

        def launch(alive, avoid):
            net.failed_links.add(("A", "B"))
            return lambda: None

        with pytest.raises(RingFailoverError) as excinfo:
            supervise_ring(
                net, "stuck", ["A", "B"], launch, essential=["A", "B"]
            )
        assert "essential" in str(excinfo.value) or "budget" in str(
            excinfo.value
        )


class TestProtocolFailover:
    def test_intersection_survives_crashed_party_degraded(self, ctx):
        faults = FaultPlan()
        faults.crash("P3")
        result = secure_set_intersection(ctx, SETS, net=reliable(faults))
        assert result.degraded
        assert result.skipped == ("P3",)
        # Intersection over the survivors only.
        assert result.any_value == ["b"]

    def test_intersection_reroutes_pairwise_partition_undegraded(self, ctx):
        faults = FaultPlan()
        faults.partition("P1", "P2")
        net = reliable(faults)
        result = secure_set_intersection(ctx, SETS, net=net)
        assert not result.degraded
        assert result.failovers >= 1
        assert result.any_value == ["b"]

    def test_degradation_is_recorded_in_the_ledger(self, ctx):
        faults = FaultPlan()
        faults.crash("P3")
        secure_set_intersection(ctx, SETS, net=reliable(faults))
        assert any(
            e.category == "degraded_result" for e in ctx.leakage.events
        )

    def test_sum_excludes_crashed_party(self, ctx):
        faults = FaultPlan()
        faults.crash("C")
        result = secure_sum(
            ctx, {"A": 10, "B": 20, "C": 30, "D": 5}, net=reliable(faults)
        )
        assert result.degraded and result.skipped == ("C",)
        assert result.any_value == 35

    def test_equality_ttp_fails_over_to_standby(self, ctx):
        faults = FaultPlan()
        faults.crash("ttp")
        result = secure_equality(
            ctx, ("A", "x"), ("B", "x"), net=reliable(faults)
        )
        # TTP replacement is a re-route, not a degradation.
        assert not result.degraded
        assert result.failovers >= 1
        assert result.values == {"A": True, "B": True}

    def test_equality_dead_party_is_typed_failure(self, ctx):
        faults = FaultPlan()
        faults.crash("B")
        with pytest.raises(RingFailoverError):
            secure_equality(ctx, ("A", "x"), ("B", "x"), net=reliable(faults))

    def test_ranking_excludes_crashed_party(self, ctx):
        faults = FaultPlan()
        faults.crash("P2")
        result = secure_ranking(
            ctx, {"P0": 5, "P1": 9, "P2": 7}, net=reliable(faults)
        )
        assert result.degraded and result.skipped == ("P2",)
        assert result.values["P0"]["argmax"] == "P1"
        assert result.values["P0"]["n"] == 2

    def test_lossy_ring_completes_without_degradation(self, prime64):
        from repro.smc.base import SmcContext

        for seed in range(4):
            ctx = SmcContext(prime64, DeterministicRng(2000 + seed))
            net = reliable(
                FaultPlan(drop_rate=0.2, rng=DeterministicRng(f"fl{seed}".encode()))
            )
            result = secure_set_intersection(ctx, SETS, net=net)
            assert result.any_value == ["b"]
            assert not result.degraded

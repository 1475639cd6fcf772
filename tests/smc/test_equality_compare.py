"""Tests for secure equality =ₛ (§3.2), ranking (§3.3), comparison <ₛ."""

import pytest

from repro.errors import ConfigurationError, SmcError
from repro.net.simnet import SimNetwork
from repro.smc.comparison import evaluate_operator, secure_compare
from repro.smc.equality import (
    AffineBlinding,
    secure_equality,
    secure_equality_commutative,
)
from repro.smc.ranking import MonotoneBlinding, secure_ranking


class TestAffineBlinding:
    def test_agree_is_deterministic_per_label(self, ctx):
        a = AffineBlinding.agree(ctx, "P1|P2|s0")
        b = AffineBlinding.agree(ctx, "P1|P2|s0")
        assert (a.a, a.b) == (b.a, b.b)

    def test_labels_differ(self, ctx):
        a = AffineBlinding.agree(ctx, "P1|P2|s0")
        b = AffineBlinding.agree(ctx, "P1|P2|s1")
        assert (a.a, a.b) != (b.a, b.b)

    def test_zero_slope_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            AffineBlinding(a=0, b=5, p=ctx.prime)

    def test_preserves_equality_only(self, ctx):
        blinding = AffineBlinding.agree(ctx, "x")
        assert blinding.apply(42) == blinding.apply(42)
        assert blinding.apply(42) != blinding.apply(43)


class TestSecureEquality:
    def test_equal_values(self, ctx):
        result = secure_equality(ctx, ("A", "salary"), ("B", "salary"))
        assert result.any_value is True

    def test_unequal_values(self, ctx):
        result = secure_equality(ctx, ("A", "salary"), ("B", "bonus"))
        assert result.any_value is False

    def test_both_parties_learn(self, ctx):
        result = secure_equality(ctx, ("A", 7), ("B", 7))
        assert result.value_for("A") is True and result.value_for("B") is True

    def test_int_vs_string_distinct(self, ctx):
        result = secure_equality(ctx, ("A", 1), ("B", "1"))
        assert result.any_value is False

    def test_same_party_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_equality(ctx, ("A", 1), ("A", 2))

    def test_ttp_learns_only_verdict(self, ctx):
        secure_equality(ctx, ("A", "x"), ("B", "x"))
        ttp_events = [e for e in ctx.leakage.events if e.observer in ("ttp", "*")]
        assert {e.category for e in ttp_events} == {"equality_verdict"}

    def test_message_cost_constant(self, ctx):
        """2 blinded submissions + 2 verdicts regardless of value size."""
        net = SimNetwork()
        secure_equality(ctx, ("A", "a" * 1000), ("B", "b" * 1000), net=net)
        assert net.stats.messages == 4

    def test_concurrent_sessions(self, ctx):
        net = SimNetwork()
        r1 = secure_equality(ctx, ("A", 1), ("B", 1), net=net, session="s1")
        r2 = secure_equality(ctx, ("A", 2), ("B", 3), net=net, session="s2")
        assert r1.any_value is True and r2.any_value is False


class TestCommutativeEquality:
    def test_equal(self, ctx):
        assert secure_equality_commutative(ctx, ("A", 42), ("B", 42)).any_value is True

    def test_unequal(self, ctx):
        assert secure_equality_commutative(ctx, ("A", 1), ("B", 2)).any_value is False

    def test_agrees_with_ttp_route(self, ctx):
        for left, right in [(5, 5), (5, 6), ("x", "x"), ("x", "y")]:
            ttp = secure_equality(
                ctx, ("A", left), ("B", right), session=f"agree-{left}-{right}"
            )
            comm = secure_equality_commutative(ctx, ("A", left), ("B", right))
            assert ttp.any_value == comm.any_value


class TestMonotoneBlinding:
    def test_order_preserved(self, ctx):
        blinding = MonotoneBlinding.agree(ctx, "g", value_bound=1000)
        values = [0, 1, 17, 500, 1000]
        blinded = [blinding.apply(v) for v in values]
        assert blinded == sorted(blinded)
        assert len(set(blinded)) == len(values)

    def test_out_of_bound_rejected(self, ctx):
        blinding = MonotoneBlinding.agree(ctx, "g", value_bound=10)
        with pytest.raises(ConfigurationError):
            blinding.apply(11)

    def test_jitter_below_slope_keeps_order(self, ctx):
        blinding = MonotoneBlinding.agree(ctx, "g", value_bound=100)
        low = blinding.apply(10, jitter=blinding.a - 1)
        high = blinding.apply(11, jitter=0)
        assert low < high

    def test_bad_jitter(self, ctx):
        blinding = MonotoneBlinding.agree(ctx, "g", value_bound=100)
        with pytest.raises(ConfigurationError):
            blinding.apply(5, jitter=blinding.a)


class TestSecureRanking:
    def test_max_min_rank(self, ctx):
        result = secure_ranking(ctx, {"A": 5, "B": 99, "C": 17})
        assert result.value_for("A") == {"rank": 1, "argmax": "B", "argmin": "A", "n": 3}
        assert result.value_for("B")["rank"] == 3
        assert result.value_for("C")["rank"] == 2

    def test_each_party_sees_own_rank_only_difference(self, ctx):
        result = secure_ranking(ctx, {"A": 1, "B": 2})
        a, b = result.value_for("A"), result.value_for("B")
        assert a["argmax"] == b["argmax"] and a["argmin"] == b["argmin"]
        assert a["rank"] != b["rank"]

    def test_ties_break_deterministically(self, ctx):
        result = secure_ranking(ctx, {"A": 7, "B": 7})
        ranks = {result.value_for(p)["rank"] for p in "AB"}
        assert ranks == {1, 2}

    def test_noise_mode_preserves_distinct_order(self, ctx):
        result = secure_ranking(
            ctx, {"A": 10, "B": 1000, "C": 500}, rank_only_noise=True
        )
        assert result.value_for("B")["argmax"] == "B"
        assert result.value_for("A")["rank"] == 1

    def test_two_party_minimum(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_ranking(ctx, {"A": 1})

    def test_negative_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_ranking(ctx, {"A": -1, "B": 2})

    def test_leakage_records_ttp_order_statistics(self, ctx):
        secure_ranking(ctx, {"A": 1, "B": 2, "C": 3})
        cats = {e.category for e in [e for e in ctx.leakage.events if e.observer in ("ttp", "*")]}
        assert cats == {"order_statistics", "scaled_gap"}

    def test_message_cost_linear(self, ctx):
        net = SimNetwork()
        secure_ranking(ctx, {f"P{i}": i for i in range(6)}, net=net)
        assert net.stats.messages == 12  # n submissions + n verdicts


class TestSecureCompare:
    @pytest.mark.parametrize(
        "left,right,expected",
        [(5, 9, "lt"), (9, 5, "gt"), (7, 7, "eq"), (0, 1, "lt"), (0, 0, "eq")],
    )
    def test_trichotomy(self, ctx, left, right, expected):
        result = secure_compare(
            ctx, ("A", left), ("B", right), session=f"t-{left}-{right}"
        )
        assert result.any_value == expected

    def test_same_party_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_compare(ctx, ("A", 1), ("A", 2))

    def test_negative_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_compare(ctx, ("A", -1), ("B", 2))

    def test_operator_semantics(self):
        assert evaluate_operator("<", "lt")
        assert evaluate_operator("<=", "eq")
        assert evaluate_operator(">=", "gt")
        assert evaluate_operator("!=", "lt")
        assert not evaluate_operator("=", "gt")
        assert not evaluate_operator(">", "eq")

    def test_operator_validation(self):
        with pytest.raises(SmcError):
            evaluate_operator("~", "lt")
        with pytest.raises(SmcError):
            evaluate_operator("<", "sideways")

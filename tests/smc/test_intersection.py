"""Tests for secure set intersection ∩ₛ (paper §3.1, Figure 4)."""

import pytest

from repro.errors import ConfigurationError, UnauthorizedObserverError
from repro.net.simnet import SimNetwork
from repro.smc.intersection import fig4_walkthrough, secure_set_intersection

FIG4_SETS = {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]}


class TestFigure4:
    def test_paper_example(self, ctx):
        result = secure_set_intersection(ctx, FIG4_SETS)
        assert result.any_value == ["e"]

    def test_walkthrough_transcript(self):
        transcript = fig4_walkthrough()
        assert transcript["intersection"] == ["e"]
        assert transcript["commutative_encodings_equal"] is True
        assert transcript["messages"] > 0 and transcript["modexp"] > 0

    def test_all_observers_agree(self, ctx):
        result = secure_set_intersection(ctx, FIG4_SETS)
        assert all(result.value_for(o) == ["e"] for o in ("P1", "P2", "P3"))


class TestCorrectness:
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_matches_plain_intersection(self, ctx, shuffle):
        sets = {
            "A": ["x", "y", "z", "w"],
            "B": ["y", "z", "q"],
            "C": ["z", "y", "r", "s"],
        }
        expected = sorted(set(sets["A"]) & set(sets["B"]) & set(sets["C"]))
        result = secure_set_intersection(ctx, sets, shuffle=shuffle)
        assert sorted(result.any_value) == expected

    def test_empty_intersection(self, ctx):
        result = secure_set_intersection(ctx, {"A": ["1"], "B": ["2"]})
        assert result.any_value == []

    def test_identical_sets(self, ctx):
        sets = {"A": ["m", "n"], "B": ["m", "n"]}
        result = secure_set_intersection(ctx, sets)
        assert sorted(result.any_value) == ["m", "n"]

    def test_two_parties(self, ctx):
        result = secure_set_intersection(ctx, {"A": [1, 2, 3], "B": [2, 3, 4]})
        assert sorted(result.any_value) == [2, 3]

    def test_single_party_degenerate(self, ctx):
        result = secure_set_intersection(ctx, {"A": [5, 6]})
        assert sorted(result.any_value) == [5, 6]

    def test_five_parties(self, ctx):
        sets = {f"P{i}": list(range(i, i + 10)) for i in range(5)}
        expected = sorted(set.intersection(*(set(v) for v in sets.values())))
        result = secure_set_intersection(ctx, sets)
        assert sorted(result.any_value) == expected

    def test_duplicates_collapse(self, ctx):
        result = secure_set_intersection(ctx, {"A": ["x", "x", "y"], "B": ["x"]})
        assert result.any_value == ["x"]

    def test_mixed_types(self, ctx):
        """ints and strings coexist; '1' != 1."""
        result = secure_set_intersection(ctx, {"A": [1, "1", "z"], "B": ["1", 2]})
        assert result.any_value == ["1"]

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_empty_private_set(self, ctx, shuffle):
        result = secure_set_intersection(
            ctx, {"A": [], "B": ["x"]}, shuffle=shuffle
        )
        assert result.any_value == []


class TestAuthorization:
    def test_restricted_observers(self, ctx):
        result = secure_set_intersection(ctx, FIG4_SETS, observers=["P1"])
        assert result.value_for("P1") == ["e"]
        with pytest.raises(UnauthorizedObserverError):
            result.value_for("P2")

    def test_unknown_observer_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_set_intersection(ctx, FIG4_SETS, observers=["P9"])

    def test_collector_must_be_party(self, ctx):
        with pytest.raises(ConfigurationError):
            secure_set_intersection(ctx, FIG4_SETS, collector="ghost")


class TestCostAndLeakage:
    def test_ring_message_count(self, ctx):
        """n parties: n·(n-1) relay hops + n full deliveries + feedback."""
        net = SimNetwork()
        n = 4
        sets = {f"P{i}": ["common", f"own-{i}"] for i in range(n)}
        secure_set_intersection(ctx, sets, net=net)
        relays = net.stats.by_kind.get("ssi.relay", 0)
        fulls = net.stats.by_kind.get("ssi.full", 0)
        assert relays == n * (n - 2) + n  # each of n sets travels n-1 hops,
        # last hop lands at collector as ssi.full when collector is next
        assert fulls == n

    def test_stage_timings_recorded(self, ctx):
        net = SimNetwork()
        secure_set_intersection(ctx, FIG4_SETS, net=net, shuffle=True)
        assert net.stats.timings.get("ssi.encrypt", 0) > 0
        assert net.stats.timings.get("ssi.decrypt", 0) > 0  # shuffled path

    def test_modexp_scales_with_set_size(self, prime64):
        from repro.crypto.rng import DeterministicRng
        from repro.smc.base import SmcContext

        small_ctx = SmcContext(prime64, DeterministicRng(b"s"))
        big_ctx = SmcContext(prime64, DeterministicRng(b"b"))
        secure_set_intersection(small_ctx, {"A": ["1"], "B": ["1"]})
        secure_set_intersection(
            big_ctx, {"A": [str(i) for i in range(20)], "B": ["1"]}
        )
        assert big_ctx.crypto_ops.modexp > small_ctx.crypto_ops.modexp

    def test_leakage_recorded(self, ctx):
        secure_set_intersection(ctx, FIG4_SETS)
        categories = ctx.leakage.categories()
        assert "set_size" in categories
        assert "result_cardinality" in categories
        assert "position_linkage" in categories  # unshuffled mode

    def test_shuffle_removes_position_linkage(self, ctx):
        secure_set_intersection(ctx, FIG4_SETS, shuffle=True)
        assert "position_linkage" not in ctx.leakage.categories()

    def test_no_primary_leakage_possible(self, ctx):
        """The ledger rejects primary categories outright."""
        from repro.errors import SmcError

        with pytest.raises(SmcError):
            ctx.leakage.record("x", "*", "plaintext", "boom")


class TestEngineIndependence:
    """The protocol result must not depend on which pow engine runs it."""

    @staticmethod
    def _run(prime64, engine, shuffle):
        from repro.crypto.rng import DeterministicRng
        from repro.smc.base import SmcContext

        ctx = SmcContext(prime64, DeterministicRng(b"eq"), engine=engine)
        result = secure_set_intersection(ctx, FIG4_SETS, shuffle=shuffle)
        return {observer: result.value_for(observer) for observer in FIG4_SETS}

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_process_pool_matches_serial(self, prime64, shuffle):
        from repro.perf.engine import ProcessPoolEngine

        serial = self._run(prime64, "serial", shuffle)
        with ProcessPoolEngine(workers=2) as pool:
            pooled = self._run(prime64, pool, shuffle)
        assert pooled == serial
        assert all(v == ["e"] for v in serial.values())

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_auto_engine_matches_serial(self, prime64, shuffle):
        assert self._run(prime64, "auto", shuffle) == self._run(
            prime64, "serial", shuffle
        )

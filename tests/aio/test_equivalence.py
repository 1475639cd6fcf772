"""Property suite: a driver awaited on an event loop equals its sync name.

Each protocol has one coroutine body with two runners, both over a
private ``SimNetwork``: the sync name runs it to completion in one step
(:func:`repro.twin.run_sync`), the ``_async`` name is awaited on a loop.
The two runs must be byte-identical: observer values, leakage ledger
(event for event, in order), crypto-op counter, network cost and virtual
time — including under randomized drop/latency fault plans with
retransmission.  Any divergence means the runner changed protocol
semantics, and is a bug.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.crypto import DeterministicRng, shared_prime
from repro.net.faults import FaultPlan
from repro.net.simnet import SimNetwork
from repro.resilience import RetryPolicy
from repro.smc import (
    SmcContext,
    secure_compare,
    secure_compare_async,
    secure_compare_batch,
    secure_compare_batch_async,
    secure_equality,
    secure_equality_async,
    secure_equality_commutative,
    secure_equality_commutative_async,
    secure_ranking,
    secure_ranking_async,
    secure_set_intersection,
    secure_set_intersection_async,
    secure_set_union,
    secure_set_union_async,
    secure_sum,
    secure_sum_async,
    secure_weighted_sum,
    secure_weighted_sum_async,
)

PRIME = shared_prime(64)


def make_net(seed: bytes | None = None, drop_rate: float = 0.0, reorder_rate: float = 0.0):
    """A network, optionally faulty; equal arguments give equal dice."""
    if seed is None:
        return SimNetwork()
    faults = FaultPlan(
        drop_rate=drop_rate, reorder_rate=reorder_rate, rng=DeterministicRng(seed)
    )
    return SimNetwork(resilience=RetryPolicy(), faults=faults)


def on_loop(body, **net_kwargs):
    """Await ``body(net)`` on a fresh loop over a fresh network."""
    net = make_net(**net_kwargs)
    return asyncio.run(body(net)), net


def _comparable(stats) -> dict:
    """Network snapshot minus wall-clock timings (never reproducible)."""
    snap = stats.snapshot()
    snap.pop("timings")
    return snap


def assert_twin_runs(sync_fn, async_fn, seed: bytes = b"eq", **net_kwargs):
    """Run the sync name, and the async name on a loop; assert equality."""
    sctx, actx = (SmcContext(PRIME, DeterministicRng(seed)) for _ in range(2))
    snet = make_net(**net_kwargs)
    sync_result = sync_fn(sctx, snet)
    looped, anet = on_loop(lambda net: async_fn(actx, net), **net_kwargs)

    assert looped == sync_result
    assert actx.leakage.events == sctx.leakage.events
    assert actx.crypto_ops.snapshot() == sctx.crypto_ops.snapshot()
    assert _comparable(anet.stats) == _comparable(snet.stats)
    assert anet.now == snet.now
    return sync_result


class TestProtocolTwins:
    SETS = {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]}

    def test_intersection(self):
        result = assert_twin_runs(
            lambda ctx, net: secure_set_intersection(ctx, self.SETS, net=net),
            lambda ctx, net: secure_set_intersection_async(ctx, self.SETS, net=net),
        )
        assert result.any_value == ["e"]

    def test_union(self):
        sets = {"A": [1, 2, 3], "B": [3, 4, 5], "C": [5, 6]}
        result = assert_twin_runs(
            lambda ctx, net: secure_set_union(ctx, sets, net=net),
            lambda ctx, net: secure_set_union_async(ctx, sets, net=net),
        )
        assert result.any_value == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("values,expected", [((7, 7), True), ((7, 9), False)])
    def test_equality(self, values, expected):
        left, right = ("A", values[0]), ("B", values[1])
        result = assert_twin_runs(
            lambda ctx, net: secure_equality(ctx, left, right, net=net),
            lambda ctx, net: secure_equality_async(ctx, left, right, net=net),
        )
        assert result.any_value is expected

    def test_equality_commutative(self):
        result = assert_twin_runs(
            lambda ctx, net: secure_equality_commutative(ctx, ("A", 42), ("B", 42), net=net),
            lambda ctx, net: secure_equality_commutative_async(ctx, ("A", 42), ("B", 42), net=net),
        )
        assert result.any_value is True

    def test_compare(self):
        result = assert_twin_runs(
            lambda ctx, net: secure_compare(ctx, ("A", 3), ("B", 9), net=net),
            lambda ctx, net: secure_compare_async(ctx, ("A", 3), ("B", 9), net=net),
        )
        assert result.any_value == "lt"

    def test_compare_batch(self):
        lvals, rvals = [1, 50, 7, 7], [2, 3, 7, 6]
        expected = ["lt" if a < b else ("gt" if a > b else "eq") for a, b in zip(lvals, rvals)]
        result = assert_twin_runs(
            lambda ctx, net: secure_compare_batch(ctx, ("A", lvals), ("B", rvals), net=net),
            lambda ctx, net: secure_compare_batch_async(ctx, ("A", lvals), ("B", rvals), net=net),
        )
        assert result.value_for("A") == expected

    def test_ranking(self):
        values = {"A": 31, "B": 17, "C": 99}
        result = assert_twin_runs(
            lambda ctx, net: secure_ranking(ctx, values, net=net),
            lambda ctx, net: secure_ranking_async(ctx, values, net=net),
        )
        assert result.value_for("C")["rank"] == len(values)

    def test_sum(self):
        values = {"A": 10, "B": 20, "C": 12}
        result = assert_twin_runs(
            lambda ctx, net: secure_sum(ctx, values, ["A"], net=net),
            lambda ctx, net: secure_sum_async(ctx, values, ["A"], net=net),
        )
        assert result.value_for("A") == 42

    def test_weighted_sum(self):
        values = {"A": 10, "B": 20}
        weights = {"A": 3, "B": 2}
        result = assert_twin_runs(
            lambda ctx, net: secure_weighted_sum(ctx, values, weights, ["B"], net=net),
            lambda ctx, net: secure_weighted_sum_async(ctx, values, weights, ["B"], net=net),
        )
        assert result.value_for("B") == 70


class TestRandomizedFaults:
    """Equivalence must survive chaos: drops retransmitted, reorders delayed.

    The fault plans are seeded identically on both sides; because the
    async driver issues the exact same send sequence, the dice rolls line
    up and so must every retransmission, duplicate-drop, and final value.
    """

    @pytest.mark.parametrize("seed", [b"f0", b"f1", b"f2"])
    def test_intersection_under_faults(self, seed):
        rng = DeterministicRng(seed + b"-inputs")
        universe = [f"v{i}" for i in range(12)]
        sets = {
            pid: sorted({universe[rng.randrange(len(universe))] for _ in range(6)})
            for pid in ("P1", "P2", "P3")
        }
        expected = sorted(set(sets["P1"]) & set(sets["P2"]) & set(sets["P3"]))
        result = assert_twin_runs(
            lambda ctx, net: secure_set_intersection(ctx, sets, net=net),
            lambda ctx, net: secure_set_intersection_async(ctx, sets, net=net),
            seed=seed,
            drop_rate=0.1,
            reorder_rate=0.2,
        )
        assert sorted(result.any_value) == expected

    @pytest.mark.parametrize("seed", [b"g0", b"g1", b"g2"])
    def test_sum_under_faults(self, seed):
        rng = DeterministicRng(seed + b"-inputs")
        values = {pid: rng.randrange(100) for pid in ("A", "B", "C", "D")}
        result = assert_twin_runs(
            lambda ctx, net: secure_sum(ctx, values, ["A"], net=net),
            lambda ctx, net: secure_sum_async(ctx, values, ["A"], net=net),
            seed=seed,
            drop_rate=0.1,
            reorder_rate=0.2,
        )
        assert result.value_for("A") == sum(values.values())

    @pytest.mark.parametrize("seed", [b"h0", b"h1"])
    def test_compare_batch_under_faults(self, seed):
        rng = DeterministicRng(seed + b"-inputs")
        lvals = [rng.randrange(50) for _ in range(8)]
        rvals = [rng.randrange(50) for _ in range(8)]
        result = assert_twin_runs(
            lambda ctx, net: secure_compare_batch(ctx, ("A", lvals), ("B", rvals), net=net),
            lambda ctx, net: secure_compare_batch_async(ctx, ("A", lvals), ("B", rvals), net=net),
            seed=seed,
            drop_rate=0.1,
            reorder_rate=0.2,
        )
        assert result.value_for("A") == [
            "lt" if a < b else ("gt" if a > b else "eq") for a, b in zip(lvals, rvals)
        ]


class TestIntegrityTwins:
    def _reports(self, populated_store, runner, async_runner, **kwargs):
        store, _ticket, _receipts = populated_store
        sync_reports = runner(store, net=SimNetwork(), **kwargs)
        looped, _ = on_loop(lambda net: async_runner(store, net=net, **kwargs))
        return sync_reports, looped

    def test_batched_round(self, populated_store):
        from repro.logstore.integrity import (
            run_batched_integrity_round,
            run_batched_integrity_round_async,
        )

        sync_reports, async_reports = self._reports(
            populated_store, run_batched_integrity_round, run_batched_integrity_round_async
        )
        assert async_reports == sync_reports
        assert all(r.verified for r in sync_reports)

    def test_combined_round(self, populated_store):
        from repro.logstore.integrity import (
            run_combined_integrity_round,
            run_combined_integrity_round_async,
        )

        sync_report, async_report = self._reports(
            populated_store, run_combined_integrity_round, run_combined_integrity_round_async
        )
        assert async_report == sync_report

    def test_per_glsn_round(self, populated_store):
        from repro.logstore.integrity import (
            run_integrity_round,
            run_integrity_round_async,
        )

        store, _ticket, receipts = populated_store
        glsns = [receipts[0].glsn, receipts[1].glsn]
        sync_reports, async_reports = self._reports(
            populated_store, run_integrity_round, run_integrity_round_async, glsns=glsns
        )
        assert async_reports == sync_reports


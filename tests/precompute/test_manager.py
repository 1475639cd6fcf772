"""Unit tests for :class:`repro.precompute.PrecomputeManager`.

The load-bearing contracts:

* the kill switch (``REPRO_PRECOMPUTE=off``) reproduces the legacy
  inline computation **bitwise** — same RNG stream, same values;
* pooled draws are deterministic in the manager's seed;
* offline attribution only ever re-labels work (``offline.*`` keys),
  never inflates ``total.modexp``;
* the background refill worker stops cleanly, including through the
  perf engine's atexit shutdown hooks.
"""

from __future__ import annotations

import time

import pytest

from repro.crypto.accumulator import AccumulatorParams, OneWayAccumulator
from repro.crypto.pohlig_hellman import PohligHellmanCipher, shared_prime
from repro.crypto.rng import DeterministicRng
from repro.crypto.schnorr import SchnorrGroup
from repro.crypto.shamir import ShamirScheme
from repro.net.stats import CryptoOpCounter
from repro.perf import engine as perf_engine
from repro.precompute import (
    PrecomputeConfig,
    PrecomputeManager,
    set_precompute_enabled,
)


@pytest.fixture()
def prime():
    return shared_prime(64)


@pytest.fixture()
def manager():
    mgr = PrecomputeManager(
        rng=DeterministicRng(b"mgr"),
        config=PrecomputeConfig(pool_size=8, low_water=2, refill_batch=4),
    )
    yield mgr
    mgr.stop_refill_worker()


@pytest.fixture()
def disabled():
    set_precompute_enabled(False)
    yield
    set_precompute_enabled(None)


class TestKillSwitchFallback:
    def test_ph_cipher_bitwise_legacy(self, prime, disabled):
        mgr = PrecomputeManager(rng=DeterministicRng(b"mgr"))
        rng = DeterministicRng(b"caller").spawn("party:P0")
        cipher = mgr.ph_cipher(prime, "P0", rng)
        legacy = PohligHellmanCipher.generate(
            prime, DeterministicRng(b"caller").spawn("party:P0")
        )
        assert cipher.key == legacy.key

    def test_affine_pair_bitwise_legacy(self, prime, disabled):
        mgr = PrecomputeManager(rng=DeterministicRng(b"mgr"))
        root = DeterministicRng(b"ctx-root")
        pair = mgr.affine_pair(prime, root, "P1|P2|s0")
        rng = DeterministicRng(b"ctx-root").spawn("blinding:P1|P2|s0")
        assert pair == (rng.randrange(1, prime), rng.randbelow(prime))

    def test_monotone_pair_bitwise_legacy(self, disabled):
        mgr = PrecomputeManager(rng=DeterministicRng(b"mgr"))
        root = DeterministicRng(b"ctx-root")
        pair = mgr.monotone_pair(root, "rank-0", 1000)
        rng = DeterministicRng(b"ctx-root").spawn("monotone:rank-0")
        a = rng.randrange(2**16, 2**32)
        b = rng.randrange(0, a * 1000)
        assert pair == (a, b)

    def test_shamir_bitwise_legacy(self, disabled):
        mgr = PrecomputeManager(rng=DeterministicRng(b"mgr"))
        scheme = ShamirScheme(k=3, n=4, p=7919)
        shares = mgr.shamir_share(scheme, "P0", 1234, DeterministicRng(b"deal"))
        legacy = scheme.share(1234, rng=DeterministicRng(b"deal"))
        assert shares == legacy

    def test_exp_pair_bitwise_legacy(self, schnorr_group, disabled):
        g = schnorr_group
        mgr = PrecomputeManager(rng=DeterministicRng(b"mgr"))
        k, r = mgr.exp_pair(g.p, g.q, g.g, "signer", DeterministicRng(b"nonce"))
        rng = DeterministicRng(b"nonce")
        expected_k = rng.randrange(1, g.q)
        assert (k, r) == (expected_k, pow(g.g, expected_k, g.p))

    def test_witness_base_uncached(self, disabled):
        # The witness base x0^e is the accumulator's own fixed-base table:
        # the kill switch does not apply to it and the manager keeps nothing.
        mgr = PrecomputeManager(rng=DeterministicRng(b"mgr"))
        acc = OneWayAccumulator(AccumulatorParams(n=3233, x0=5))
        assert mgr.warm_witness(acc) > 0
        assert acc.base_power(17) == pow(5, 17, 3233)
        assert mgr.pool_snapshot() == {} and mgr.online_stats() == {}


class TestPooledDraws:
    def test_pooled_values_deterministic_in_manager_seed(self, prime):
        def drawn(seed):
            mgr = PrecomputeManager(
                rng=DeterministicRng(seed),
                config=PrecomputeConfig(pool_size=4, low_water=0),
            )
            mgr.warm_smc(prime, ["P0"])
            return [mgr.ph_cipher(prime, "P0", None).key for _ in range(4)]

        assert drawn(b"same") == drawn(b"same")
        assert drawn(b"same") != drawn(b"other")

    def test_shamir_pooled_shares_reconstruct(self, manager):
        scheme = ShamirScheme(k=3, n=4, p=7919)
        manager.warm_shamir(scheme, ["P0"])
        shares = manager.shamir_share(scheme, "P0", 4321, None)
        assert len(shares) == 4
        assert scheme.reconstruct(shares[:3]) == 4321
        assert scheme.reconstruct(shares[1:]) == 4321

    def test_exp_pair_pooled_is_valid_pair(self, schnorr_group, manager):
        g = schnorr_group
        manager.warm_blind(g.p, g.q, g.g, "signer")
        k, r = manager.exp_pair(g.p, g.q, g.g, "signer", None)
        assert 1 <= k < g.q and r == pow(g.g, k, g.p)

    def test_warm_witness_builds_the_table_once(self, manager):
        acc = OneWayAccumulator(AccumulatorParams(n=3233, x0=5))
        first = manager.warm_witness(acc)
        assert first > 0 and manager.warm_witness(acc) == 0
        assert acc.base_power(99) == pow(5, 99, 3233)
        # Building a table is no pool draw and no exponentiation.
        assert manager.pool_snapshot() == {}
        assert manager.offline_ops.snapshot() == {}

    def test_empty_pool_falls_back_to_caller_rng(self, prime, manager):
        # No warm: the draw misses and must consume the caller's stream
        # exactly like the kill-switch path.
        cipher = manager.ph_cipher(prime, "P0", DeterministicRng(b"c"))
        legacy = PohligHellmanCipher.generate(prime, DeterministicRng(b"c"))
        assert cipher.key == legacy.key

    def test_offline_attribution_relabels_only(self, prime, manager):
        ops = CryptoOpCounter()
        manager.warm_smc(prime, ["P0"])
        manager.ph_cipher(prime, "P0", None, ops=ops)
        manager.affine_pair(prime, None, "x", ops=ops)
        assert ops.snapshot() == {
            "offline.keygen": 1, "offline.blinding": 1,
        }
        assert ops.modexp == 0  # relabels never touch total.modexp

    def test_online_stats_ledger(self, prime, manager):
        manager.warm_smc(prime, ["P0"])
        manager.ph_cipher(prime, "P0", None)
        manager.ph_cipher(prime, "P1", DeterministicRng(b"c"))  # cold miss
        stats = manager.online_stats()["ph"]
        assert stats["calls"] == 2 and stats["pooled"] == 1
        assert stats["seconds"] >= 0.0
        assert 0.0 < manager.hit_rate() < 1.0


class TestRefillWorker:
    def test_refill_low_pools_tops_up(self, prime, manager):
        manager.warm_smc(prime, ["P0"])
        pool = manager._pool("ph", (prime, "P0"), "n/a", manager._produce_ph(prime))
        for _ in range(7):
            pool.draw()
        assert pool.needs_refill
        assert manager.refill_low_pools() > 0
        assert not pool.needs_refill

    def test_worker_lifecycle_and_nudge(self, prime, manager):
        manager.start_refill_worker()
        assert manager.refill_worker_alive
        manager.start_refill_worker()  # idempotent
        # Drain a pool below the watermark; a draw nudges the worker.
        manager.warm_smc(prime, ["P0"])
        for _ in range(8):
            manager.ph_cipher(prime, "P0", DeterministicRng(b"c"))
        deadline = time.monotonic() + 5.0
        pool = manager._pool("ph", (prime, "P0"), "n/a", manager._produce_ph(prime))
        while pool.needs_refill and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not pool.needs_refill
        manager.stop_refill_worker()
        assert not manager.refill_worker_alive

    def test_engine_shutdown_hook_stops_worker(self, manager):
        """Satellite: the perf-engine atexit path joins the refill thread."""
        manager.start_refill_worker()
        assert manager.stop_refill_worker in perf_engine._shutdown_hooks
        perf_engine._shutdown_at_exit()
        assert not manager.refill_worker_alive
        assert manager.stop_refill_worker not in perf_engine._shutdown_hooks

    def test_stop_unregisters_hook(self, manager):
        manager.start_refill_worker()
        manager.stop_refill_worker()
        assert manager.stop_refill_worker not in perf_engine._shutdown_hooks

    def test_disabled_refill_is_noop(self, prime, manager, disabled):
        assert manager.refill_low_pools() == 0

"""Unit tests for the correlated-randomness pool primitives."""

from __future__ import annotations

import threading

from repro.crypto.rng import DeterministicRng
from repro.obs.metrics import MetricsRegistry
from repro.perf.engine import SerialEngine
from repro.precompute.pool import Pool


def counting_producer(counter=None):
    """A producer whose entries are consecutive integers."""
    state = {"next": 0, "calls": 0}

    def produce(count, rng, engine):
        state["calls"] += 1
        entries = list(range(state["next"], state["next"] + count))
        state["next"] += count
        return entries, 0

    produce.state = state
    return produce


class TestPool:
    def make(self, pool_size=8, low_water=3, metrics=None):
        return Pool(
            "test-pool",
            counting_producer(),
            DeterministicRng(b"pool"),
            pool_size=pool_size,
            low_water=low_water,
            metrics=metrics,
        )

    def test_draw_from_empty_is_miss(self):
        pool = self.make()
        assert pool.draw() is None
        assert pool.snapshot()["misses"] == 1

    def test_fill_tops_to_pool_size(self):
        pool = self.make(pool_size=8)
        assert pool.fill() == 8
        assert pool.depth == 8
        # Refilling a full pool produces nothing.
        assert pool.fill() == 0

    def test_fill_respects_count_cap(self):
        pool = self.make(pool_size=8)
        assert pool.fill(3) == 3
        assert pool.depth == 3

    def test_fifo_draw_order(self):
        pool = self.make()
        pool.fill(4)
        assert [pool.draw() for _ in range(4)] == [0, 1, 2, 3]

    def test_needs_refill_watermark(self):
        pool = self.make(pool_size=8, low_water=3)
        pool.fill()
        while pool.depth >= 3:
            assert not pool.needs_refill
            pool.draw()
        assert pool.needs_refill

    def test_snapshot_counters(self):
        pool = self.make(pool_size=4)
        pool.fill()
        pool.draw()
        pool.draw()
        snap = pool.snapshot()
        assert snap == {
            "depth": 2, "hits": 2, "misses": 0,
            "produced": 4, "refills": 1, "offline_modexp": 0,
        }

    def test_concurrent_draws_never_duplicate(self):
        pool = self.make(pool_size=64, low_water=0)
        pool.fill()
        drawn, lock = [], threading.Lock()

        def worker():
            got = []
            for _ in range(16):
                entry = pool.draw()
                if entry is not None:
                    got.append(entry)
            with lock:
                drawn.extend(got)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(drawn) == 64
        assert len(set(drawn)) == 64  # every entry served exactly once

    def test_metrics_instruments(self):
        registry = MetricsRegistry()
        pool = self.make(pool_size=4, metrics=registry)
        pool.fill()
        pool.draw()
        text = registry.render_prometheus()
        assert 'repro_precompute_pool_depth{pool="test-pool"} 3' in text
        assert 'repro_precompute_hits_total{pool="test-pool"} 1' in text
        assert "repro_precompute_refill_batch_size" in text


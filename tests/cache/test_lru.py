"""Tests for the bounded LRU memoization primitive (repro.cache)."""

import pytest

from repro.cache import (
    LruCache,
    cache_stats_snapshot,
    caching_enabled,
    clear_all_caches,
    default_max_entries,
    set_caching_enabled,
)
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry


class TestLruSemantics:
    def test_get_or_compute_memoizes(self):
        cache = LruCache("t", max_entries=4)
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        again = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == again == 42
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LruCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: b is now the LRU tail
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LruCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes, does not grow
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_clear(self):
        cache = LruCache("t", max_entries=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a", "gone") == "gone"

    def test_hit_rate(self):
        cache = LruCache("t")
        assert cache.stats.hit_rate == 0.0
        cache.put("k", 1)
        cache.get("k")
        cache.get("nope")
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_invalid_max_entries(self):
        with pytest.raises(ConfigurationError):
            LruCache("t", max_entries=0)


class TestKillSwitch:
    def test_runtime_override_disables(self):
        cache = LruCache("t")
        set_caching_enabled(False)
        calls = []
        for _ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1) or 7)
        assert len(calls) == 3  # recomputed every time
        assert len(cache) == 0  # and nothing was stored
        assert not caching_enabled()

    def test_put_and_get_are_noops_when_disabled(self):
        cache = LruCache("t")
        set_caching_enabled(False)
        cache.put("k", 1)
        assert cache.get("k", "miss") == "miss"
        set_caching_enabled(None)

    def test_on_by_default_and_none_restores_it(self):
        assert caching_enabled()
        set_caching_enabled(False)
        set_caching_enabled(None)
        assert caching_enabled()


class TestMaxEntriesEnv:
    def test_default(self):
        assert default_max_entries() == 4096
        assert LruCache("t").max_entries == 4096


class TestMetrics:
    def test_counters_mirrored(self):
        # The counters /metrics reads (repro_cache_*{cache="demo"}).
        cache = LruCache("demo", max_entries=1)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.put("b", 2)  # evicts "a"
        s = cache.stats
        assert (s.hits, s.misses, s.evictions, s.entries) == (1, 1, 1, 1)

    def test_value_accessor_never_creates(self):
        registry = MetricsRegistry()
        assert registry.value("nothing_here") is None
        assert "nothing_here" not in registry.snapshot()

    def test_value_rejects_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1, 2)).observe(1)
        with pytest.raises(ConfigurationError):
            registry.value("h")


class TestGlobalRegistry:
    def test_snapshot_sums_same_named_caches(self):
        a = LruCache("shared-name")
        b = LruCache("shared-name")
        a.get_or_compute("x", lambda: 1)
        a.get_or_compute("x", lambda: 1)
        b.get_or_compute("y", lambda: 2)
        snap = cache_stats_snapshot()["shared-name"]
        assert snap["hits"] >= 1 and snap["misses"] >= 2
        assert snap["entries"] >= 2

    def test_clear_all(self):
        cache = LruCache("to-clear")
        cache.put("k", 1)
        assert clear_all_caches() >= 1
        assert len(cache) == 0

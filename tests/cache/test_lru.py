"""Tests for the bounded LRU memoization primitive (repro.cache)."""

import pytest

from repro.cache import (
    LruCache,
    cache_stats_snapshot,
    caching_enabled,
    default_max_entries,
    set_caching_enabled,
)
from repro.errors import ConfigurationError


class TestLruSemantics:
    def test_get_or_compute_memoizes(self):
        cache = LruCache("t", max_entries=4)
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        again = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == again == 42
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_a_versioned_slot_holds_one_version(self):
        cache = LruCache("t", max_entries=4)
        assert cache.get_or_compute("k", lambda: "v1", version=1) == "v1"
        assert cache.get_or_compute("k", lambda: "never", version=1) == "v1"
        assert cache.get_or_compute("k", lambda: "v2", version=2) == "v2"
        assert cache.stats.entries == 1 and cache.get("k") == (2, "v2")
        # An older version is computed for its caller but never replaces
        # the newer one.
        assert cache.get_or_compute("k", lambda: "v1 again", version=1) == "v1 again"
        assert cache.get("k") == (2, "v2")
        assert (cache.stats.hits, cache.stats.misses) == (3, 3)

    def test_eviction_is_least_recently_used(self):
        cache = LruCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: b is now the LRU tail
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert (cache.get("a"), cache.get("c")) == (1, 3)

    def test_put_refreshes_recency(self):
        cache = LruCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes, does not grow
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_invalid_max_entries(self):
        with pytest.raises(ConfigurationError):
            LruCache("t", max_entries=0)

    def test_bulk_get_and_put_are_gets_and_puts(self):
        cache = LruCache("t", max_entries=3)
        cache.put_many([("a", 1), ("b", 2), ("c", 3)])
        assert cache.get_many(["c", "x", "a"]) == ([3, None, 1], ["x"])
        assert cache.get_many(["a", "c"]) == ([1, 3], [])
        assert (cache.stats.hits, cache.stats.misses) == (4, 1)
        # "b" was the one key not read: least recently used, evicted first.
        cache.put_many([("d", 4)])
        assert cache.get_many(["a", "b", "c", "d"]) == ([1, None, 3, 4], ["b"])
        assert cache.stats.evictions == 1 and cache.stats.entries == 3


class TestKillSwitch:
    def test_runtime_override_disables(self):
        cache = LruCache("t")
        set_caching_enabled(False)
        calls = []
        for _ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1) or 7)
        assert len(calls) == 3  # recomputed every time
        assert cache.stats.entries == 0  # and nothing was stored
        assert not caching_enabled()

    def test_put_and_get_are_noops_when_disabled(self):
        cache = LruCache("t")
        set_caching_enabled(False)
        cache.put("k", 1)
        assert cache.get("k", "miss") == "miss"
        cache.put_many([("k", 1)])
        assert cache.get_many(["k"]) == ([None], ["k"])
        assert cache.stats.entries == 0
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

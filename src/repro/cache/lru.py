"""Bounded, epoch-keyed memoization stores for the DLA hot paths.

The service's steady-state cost is dominated by *redundant* work:
repeated audit queries re-scan the same fragment stores and re-hash the
same attribute sets into ``Z_p^*`` even though the log barely changed.
:class:`LruCache` is the one memoization primitive every hot path shares:

* **Bounded.** At most ``max_entries`` live entries (default
  :data:`DEFAULT_MAX_ENTRIES`, 4096); the least-recently-used entry is
  evicted first, so a long-running service cannot grow without limit.
* **Epoch-keyed.** Callers put the data-version (a
  :class:`~repro.logstore.store.FragmentStore` epoch, the cipher
  prime) *into the key*.  Stale entries are
  never served — they simply stop being looked up and age out of the
  LRU.  There is no invalidation bookkeeping to get wrong.
* **Observable.** Hit / miss / eviction counters (:attr:`LruCache.stats`;
  ``/metrics`` reads a service's caches as
  ``repro_cache_hits_total{cache=...}`` etc.).
* **Killable.** :func:`set_caching_enabled` ``(False)`` turns every
  cache into a pass-through: :meth:`LruCache.get_or_compute` recomputes
  unconditionally and stores nothing, so any suspected cache-coherence
  bug can be ruled out with one call.
  Cached and uncached paths are value-identical by construction — the
  equivalence test suite asserts it.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError

__all__ = [
    "CacheStats",
    "LruCache",
    "caching_enabled",
    "set_caching_enabled",
    "default_max_entries",
    "cache_stats_snapshot",
    "clear_all_caches",
]

DEFAULT_MAX_ENTRIES = 4096

# The kill switch (:func:`set_caching_enabled`); caches serve by default.
_enabled = True

# Every live cache, so snapshots/kill-switch sweeps can reach them all.
_live_caches: "weakref.WeakSet[LruCache]" = weakref.WeakSet()


def caching_enabled() -> bool:
    """Whether caches serve entries (the :func:`set_caching_enabled` switch)."""
    return _enabled


def set_caching_enabled(flag: bool | None) -> None:
    """Turn every cache off (``False``) or on; ``None`` restores the
    default, on."""
    global _enabled
    _enabled = True if flag is None else bool(flag)


def default_max_entries() -> int:
    """Per-cache entry bound (:data:`DEFAULT_MAX_ENTRIES`)."""
    return DEFAULT_MAX_ENTRIES


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one cache."""

    name: str
    hits: int
    misses: int
    evictions: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _MISSING:  # sentinel distinguishable from any cached value
    pass


class LruCache:
    """A named, bounded, counting least-recently-used cache.

    Thread-safe for the simple get/put paths (one lock); values are
    expected to be immutable (tuples, frozensets, ints) so a hit can be
    handed straight to the caller.
    """

    def __init__(self, name: str, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError("max_entries must be positive")
        self.name = name
        self.max_entries = max_entries if max_entries is not None else default_max_entries()
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _live_caches.add(self)

    # -- core --------------------------------------------------------------

    def get(self, key, default=None):
        """Look up ``key``; counts a hit or miss, refreshes recency."""
        if not caching_enabled():
            return default
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        if not caching_enabled():
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key, compute: Callable[[], object]):
        """Serve ``key`` from cache or run ``compute`` and remember it.

        With caching disabled this is exactly ``compute()`` — nothing is
        read or written, so the kill switch also rules out key bugs.
        """
        if not caching_enabled():
            return compute()
        sentinel = _MISSING
        with self._lock:
            value = self._entries.get(key, sentinel)
            if value is not sentinel:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
        # Compute outside the lock: big-int work must not serialize readers.
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._entries),
            )

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"<LruCache {self.name} entries={s.entries}/{self.max_entries} "
            f"hits={s.hits} misses={s.misses} evictions={s.evictions}>"
        )


def cache_stats_snapshot() -> dict[str, dict]:
    """Stats of every live cache, keyed by cache name (JSON-safe).

    Same-named caches (e.g. per-executor column caches) are summed.
    """
    out: dict[str, dict] = {}
    for cache in list(_live_caches):
        s = cache.stats
        row = out.setdefault(
            s.name, {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        )
        row["hits"] += s.hits
        row["misses"] += s.misses
        row["evictions"] += s.evictions
        row["entries"] += s.entries
    return dict(sorted(out.items()))


def clear_all_caches() -> int:
    """Drop every entry of every live cache; returns caches cleared."""
    caches = list(_live_caches)
    for cache in caches:
        cache.clear()
    return len(caches)

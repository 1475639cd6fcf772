"""Bounded, epoch-keyed memoization stores for the DLA hot paths.

The service's steady-state cost is dominated by *redundant* work:
repeated audit queries re-scan the same fragment stores and re-run the
same cross-predicate rings even though the log barely changed.
:class:`LruCache` is the one memoization primitive every hot path shares:

* **Bounded.** At most ``max_entries`` live entries (default
  :data:`DEFAULT_MAX_ENTRIES`, 4096); the least-recently-used entry is
  evicted first, so a long-running service cannot grow without limit.
* **Epoch-keyed.** Callers put the data-version (a
  :class:`~repro.logstore.store.FragmentStore` epoch) *into the key*,
  or pass it as the ``version`` of a slot
  (:meth:`LruCache.get_or_compute`).  Stale entries are never served —
  a key's simply stop being looked up and age out of the LRU, a slot's
  is replaced by the next version's.  There is no invalidation
  bookkeeping to get wrong.  The one exception, ``obs.signatures``,
  keys by glsn, and its owner empties it (:meth:`~LruCache.clear`):
  a version per key would cost a tuple per lookup on a path that reads
  hundreds of keys at once (:meth:`~LruCache.get_many`).  Each cache's
  rule is in ``docs/storage.md``, "Store epochs and cache coherence".
* **Observable.** Hit / miss / eviction counters (:attr:`LruCache.stats`;
  ``/metrics`` reads a service's caches as
  ``repro_cache_hits_total{cache=...}`` etc.).
* **Killable.** :func:`set_caching_enabled` ``(False)`` turns every
  cache into a pass-through: :meth:`LruCache.get_or_compute` recomputes
  unconditionally and stores nothing, so any suspected cache-coherence
  bug can be ruled out with one call.  :func:`coalescing_from_env`
  (``REPRO_SCHED_COALESCE``) is the narrower privacy opt-out: it stops
  one query being served another's cross-predicate or whole result.
  Cached and uncached paths are value-identical by construction — the
  equivalence test suite asserts it.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_, is_not
from typing import Callable

from repro.errors import ConfigurationError

__all__ = [
    "COALESCE_ENV_VAR",
    "CacheStats",
    "LruCache",
    "caching_enabled",
    "coalescing_from_env",
    "set_caching_enabled",
    "default_max_entries",
    "cache_stats_snapshot",
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


COALESCE_ENV_VAR = "REPRO_SCHED_COALESCE"

_OFF_VALUES = {"off", "0", "false", "no", "disabled"}
_ON_VALUES = {"on", "1", "true", "yes", "enabled", ""}


def coalescing_from_env() -> bool:
    """``REPRO_SCHED_COALESCE`` (default on): whether a query may be served
    the result of another query's run at equal store epochs.  A value that
    is neither an on nor an off spelling is an error, never a silent "on"."""
    raw = os.environ.get(COALESCE_ENV_VAR, "on").strip().lower()
    if raw in _OFF_VALUES:
        return False
    if raw in _ON_VALUES:
        return True
    raise ConfigurationError(f"{COALESCE_ENV_VAR}={raw!r} is neither on nor off")


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
            self._put_locked(key, value)

    def get_many(self, keys: list) -> tuple[list, list]:
        """:meth:`get` of each of ``keys`` under one lock: the values in
        ``keys``' order, ``None`` for a miss, and the keys missed.  The
        lookups and recency refreshes are C calls, not a Python loop."""
        if not caching_enabled():
            return [None] * len(keys), list(keys)
        with self._lock:
            entries = self._entries
            try:
                found = list(map(entries.__getitem__, keys))
                missed, held = [], keys
            except KeyError:
                found = list(map(entries.get, keys, repeat(_MISSING)))
                missed = list(compress(keys, map(is_, found, repeat(_MISSING))))
                held = compress(keys, map(is_not, found, repeat(_MISSING)))
                found = [None if value is _MISSING else value for value in found]
            deque(map(entries.move_to_end, held), maxlen=0)
            self.hits += len(keys) - len(missed)
            self.misses += len(missed)
        return found, missed

    def put_many(self, items) -> None:
        """:meth:`put` of each ``(key, value)`` pair, under one lock."""
        if not caching_enabled():
            return
        with self._lock:
            for key, value in items:
                self._put_locked(key, value)

    def _put_locked(self, key, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(self, key, compute: Callable[[], object], version=_MISSING):
        """Serve ``key`` from cache or run ``compute`` and remember it.

        With ``version`` (an ordered stamp, such as a store epoch) ``key``
        is a slot holding one version of its value, stored as the pair
        ``(version, value)``: an entry of another version is a miss, and
        the value computed for a version at least as new replaces it, so
        a superseded value leaves the cache at once instead of waiting to
        age out.  Use a key with ``version`` always or never.

        With caching disabled this is exactly ``compute()`` — nothing is
        read or written, so the kill switch also rules out key bugs.
        """
        if not caching_enabled():
            return compute()
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is not _MISSING and (version is _MISSING or entry[0] == version):
                self._entries.move_to_end(key)
                self.hits += 1
                return entry if version is _MISSING else entry[1]
            self.misses += 1
        # Compute outside the lock: big-int work must not serialize readers.
        value = compute()
        with self._lock:
            if version is _MISSING:
                self._put_locked(key, value)
                return value
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING or entry[0] <= version:  # else a newer one won
                self._put_locked(key, (version, value))
        return value

    def clear(self) -> None:
        """Drop every entry; the counters keep counting."""
        with self._lock:
            self._entries.clear()

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

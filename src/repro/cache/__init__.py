"""repro.cache — epoch-keyed memoization for the DLA hot paths.

One primitive (:class:`LruCache`) behind two hot paths:

* the query executor's per-(node, attribute) column cache, keyed by the
  owning store's epoch;
* the :class:`~repro.crypto.pohlig_hellman.MessageEncoder` hashed-encoding
  memo (pure function of value and prime).

:func:`set_caching_enabled` ``(False)`` disables everything at once;
each cache holds at most ``DEFAULT_MAX_ENTRIES`` entries unless built
with ``max_entries=``.  See ``docs/perf.md``.
"""

from repro.cache.lru import (
    CacheStats,
    LruCache,
    cache_stats_snapshot,
    caching_enabled,
    clear_all_caches,
    default_max_entries,
    set_caching_enabled,
)

__all__ = [
    "CacheStats",
    "LruCache",
    "cache_stats_snapshot",
    "caching_enabled",
    "clear_all_caches",
    "default_max_entries",
    "set_caching_enabled",
]

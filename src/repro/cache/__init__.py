"""repro.cache — epoch-keyed memoization for the DLA hot paths.

One primitive (:class:`LruCache`) behind two hot paths:

* the query executor's per-(node, attribute) column cache, keyed by the
  owning store's epoch;
* the :class:`~repro.crypto.pohlig_hellman.MessageEncoder` hashed-encoding
  memo (pure function of value and prime).

``REPRO_CACHE=off`` disables everything at once;
``REPRO_CACHE_MAX_ENTRIES`` bounds each cache.  See ``docs/perf.md``.
"""

from repro.cache.lru import (
    CACHE_ENV_VAR,
    MAX_ENTRIES_ENV_VAR,
    CacheStats,
    LruCache,
    cache_stats_snapshot,
    caching_enabled,
    clear_all_caches,
    default_max_entries,
    set_caching_enabled,
)

__all__ = [
    "CACHE_ENV_VAR",
    "MAX_ENTRIES_ENV_VAR",
    "CacheStats",
    "LruCache",
    "cache_stats_snapshot",
    "caching_enabled",
    "clear_all_caches",
    "default_max_entries",
    "set_caching_enabled",
]

"""repro.cache — epoch-keyed memoization for the DLA hot paths.

One primitive (:class:`LruCache`) behind three hot paths:

* the query executor's per-(node, attribute) column cache, one slot
  versioned by the owning store's epoch;
* the :class:`~repro.crypto.pohlig_hellman.MessageEncoder` hashed-encoding
  memo (pure function of value and prime);
* the service's one sub-plan memo (``query.subplan``): cross-predicate
  results keyed on the predicate, its nodes' store epochs and the plan's
  glsn floor, shared by sync and scheduled queries (off under
  ``REPRO_SCHED_COALESCE=off``).

:func:`set_caching_enabled` ``(False)`` disables everything at once;
each cache holds at most ``DEFAULT_MAX_ENTRIES`` entries unless built
with ``max_entries=``.  See ``docs/perf.md``.
"""

from repro.cache.lru import (
    COALESCE_ENV_VAR,
    CacheStats,
    LruCache,
    cache_stats_snapshot,
    caching_enabled,
    coalescing_from_env,
    default_max_entries,
    set_caching_enabled,
)

__all__ = [
    "COALESCE_ENV_VAR",
    "CacheStats",
    "LruCache",
    "cache_stats_snapshot",
    "caching_enabled",
    "coalescing_from_env",
    "default_max_entries",
    "set_caching_enabled",
]

"""repro.cache — epoch-keyed memoization for the DLA hot paths.

One primitive (:class:`LruCache`) behind the four caches a service
builds:

* ``query.projection``: the query executor's per-(node, attribute)
  column cache, one slot versioned by the owning store's epoch;
* ``query.subplan``: the service's one sub-plan memo, cross-predicate
  results keyed on the predicate, its nodes' store epochs and the plan's
  glsn floor, shared by sync and scheduled queries;
* ``sched.query``: the whole-query memo every scheduled query reads
  (with ``query.subplan``, off under ``REPRO_SCHED_COALESCE=off``);
* ``obs.signatures``: the observatory's per-glsn attribute-name sets.

:func:`set_caching_enabled` ``(False)`` disables everything at once;
each cache holds at most ``DEFAULT_MAX_ENTRIES`` entries unless built
with ``max_entries=``.  Each cache's forced-off cost is in
``docs/perf.md``.
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

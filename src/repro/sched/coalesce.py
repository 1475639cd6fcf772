"""Single-flight coalescing: identical work computed once, fanned out.

Concurrent audit queries repeat each other's work at three levels —
per-attribute columns, whole cross-predicate SMC subplans, and whole
queries.  All three are *pure given the fragment stores'
epochs* (PR 3 keys every cache entry on the owning store's epoch, so a
write anywhere bumps the epoch and naturally misses).  That purity is
what makes sharing across in-flight queries safe: two queries asking for
the same epoch-keyed computation must receive the same value, so only
one should compute it.

:class:`SingleFlightCache` wraps an :class:`~repro.cache.LruCache` and
adds exactly that: the first thread to miss a key becomes its *holder*
and computes; threads that ask for the same key while the computation is
in flight *join* — they block on the holder's completion event, then
read the cached value.  Failure never poisons joiners: if the holder's
computation raises (its deadline expired, its ring failed over and
died), the exception propagates to the holder only; each joiner wakes,
finds no cached value, and retries — one of them becomes the new holder.
A slow or dying query can therefore never corrupt a neighbor's result,
only cost it one recomputation.

The wrapper exposes the same ``get_or_compute(key, compute)`` signature
as :class:`LruCache`, so the executor accepts either interchangeably.
With the global cache kill switch off (``REPRO_CACHE=off``), coalescing
disables itself along with the caches: every caller computes privately,
exactly like the serial path.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.cache import LruCache, caching_enabled

__all__ = ["SingleFlightCache"]


class _MISSING:
    pass


_MISS = _MISSING()


class SingleFlightCache:
    """An :class:`LruCache` with in-flight deduplication of computes.

    ``metrics``/``metric_label`` (optional): joins are counted into
    ``sched.coalesce_hits`` labelled with the sharing level, so the
    scheduler's coalescing wins are observable per level.
    """

    def __init__(
        self,
        cache: LruCache,
        metrics=None,
        metric_label: str | None = None,
    ) -> None:
        self.cache = cache
        self._lock = threading.Lock()
        self._inflight: dict[object, threading.Event] = {}
        self.joins = 0
        self._metric = None
        if metrics is not None:
            self._metric = metrics.counter(
                "sched.coalesce_hits",
                help="computations served by joining concurrent identical work",
                labels={"level": metric_label or cache.name},
            )

    @property
    def name(self) -> str:
        return self.cache.name

    @property
    def stats(self):
        return self.cache.stats

    def get_or_compute(self, key, compute: Callable[[], object]):
        """Serve ``key`` from cache, join an in-flight compute, or compute.

        The loop structure guarantees progress: every pass either returns
        a cached value, makes this thread the holder, or waits on a
        holder that is *guaranteed* (``finally``) to set its event.
        """
        if not caching_enabled():
            return compute()
        while True:
            wait_for = None
            with self._lock:
                value = self.cache.get(key, _MISS)
                if value is not _MISS:
                    return value
                event = self._inflight.get(key)
                if event is None:
                    # This thread becomes the holder.
                    self._inflight[key] = threading.Event()
                else:
                    wait_for = event
                    self.joins += 1
            if wait_for is not None:
                # Join: wait for the holder, then re-check the cache.  A
                # failed holder stores nothing — the loop retries and one
                # joiner becomes the new holder (no exception fan-out).
                if self._metric is not None:
                    self._metric.inc()
                wait_for.wait()
                continue
            try:
                value = compute()
                self.cache.put(key, value)
                return value
            finally:
                with self._lock:
                    done = self._inflight.pop(key, None)
                if done is not None:
                    done.set()

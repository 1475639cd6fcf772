"""Single-flight coalescing: identical work computed once, fanned out.

Concurrent audit queries repeat each other's work — whole cross-predicate
SMC subplans and whole queries — and both are *pure given the fragment
stores' epochs* (every key carries the owning stores' epochs, so a write
anywhere naturally misses).  That purity is what makes sharing across
in-flight queries safe: two queries asking for the same epoch-keyed
computation must receive the same value, so only one should compute it.

:class:`AsyncSingleFlight` wraps an :class:`~repro.cache.LruCache` and
adds exactly that: the first task to miss a key becomes its *holder* and
computes under an :class:`asyncio.Event`; tasks that ask for the same key
while the computation is in flight *join* — they ``await`` the event,
then read the cached value.  Failure never poisons joiners: a failed
holder (its deadline expired, its ring failed over and died) stores
nothing, its exception propagates to the holder only, and exactly one
retrying joiner becomes the new holder.  A slow or dying query can
therefore never corrupt a neighbor's result, only cost it one
recomputation.

Attribute columns need none of this: their build is pure sync, so on the
one loop thread it always finishes before anyone could join — the
scheduler hands the executor a plain :class:`~repro.cache.LruCache` for
them.  With the global cache kill switch off
(:func:`~repro.cache.set_caching_enabled`), coalescing disables itself along with the caches: every caller computes
privately, exactly like the serial path.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.cache import LruCache, caching_enabled

__all__ = ["AsyncSingleFlight"]


class _MISSING:
    pass


_MISS = _MISSING()


class AsyncSingleFlight:
    """An :class:`LruCache` with in-flight deduplication of coroutine computes.

    Exposes the wrapped cache's ``name`` and ``stats`` plus ``joins``
    (``/metrics`` reads it as ``repro_sched_coalesce_hits_total``, labelled
    with the sharing level).  All state is touched only between awaits on
    one event loop, so no lock is needed.
    """

    def __init__(self, cache: LruCache) -> None:
        self.cache = cache
        self._inflight: dict[object, asyncio.Event] = {}
        self.joins = 0

    @property
    def name(self) -> str:
        return self.cache.name

    @property
    def stats(self):
        return self.cache.stats

    async def get_or_compute(self, key, compute: Callable[[], Awaitable[object]]):
        """Serve ``key`` from cache, join an in-flight compute, or compute."""
        if not caching_enabled():
            return await compute()
        while True:
            value = self.cache.get(key, _MISS)
            if value is not _MISS:
                return value
            event = self._inflight.get(key)
            if event is not None:
                # Join: await the holder, then re-check the cache.  A
                # failed holder stores nothing — the loop retries and one
                # joiner becomes the new holder (no exception fan-out).
                self.joins += 1
                await event.wait()
                continue
            self._inflight[key] = asyncio.Event()
            try:
                value = await compute()
                self.cache.put(key, value)
                return value
            finally:
                done = self._inflight.pop(key, None)
                if done is not None:
                    done.set()

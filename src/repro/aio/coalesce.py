"""Coroutine-safe single-flight coalescing.

The thread-based :class:`~repro.sched.coalesce.SingleFlightCache` parks
joiners on a :class:`threading.Event` — on a single-threaded event loop
that is a deadlock, because the joiner's blocking wait prevents the
suspended holder coroutine from ever resuming.  :class:`AsyncSingleFlight`
is the coroutine-shaped equivalent: the holder computes under an
:class:`asyncio.Event`, joiners ``await`` it, and a failed holder stores
nothing so exactly one retrying joiner becomes the new holder (identical
no-poisoning semantics).

The sharing level whose compute is *pure sync* (attribute columns)
keeps using the thread-based cache even inside coroutines —
a sync compute can never suspend, so the holder always finishes before
anyone could join on the same loop.  Only levels whose computes contain
``await`` (SMC subplans, whole queries) need this class.
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

    Same observable surface as the thread-based wrapper: ``name``,
    ``stats``, ``joins``, and joins counted into ``sched.coalesce_hits``
    labelled with the sharing level.  All state is touched only between
    awaits on one event loop, so no lock is needed.
    """

    def __init__(
        self,
        cache: LruCache,
        metrics=None,
        metric_label: str | None = None,
    ) -> None:
        self.cache = cache
        self._inflight: dict[object, asyncio.Event] = {}
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
                if self._metric is not None:
                    self._metric.inc()
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

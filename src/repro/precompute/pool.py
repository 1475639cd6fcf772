"""Thread-safe pools of precomputed correlated randomness.

:class:`Pool` is a FIFO of *consumable* entries (Pohlig-Hellman key
pairs, blinding factors, Shamir polynomial tails, Schnorr nonce
commitments).  Each entry is used by exactly one protocol session and
never reused — the correlated-randomness contract.

Entry production happens under a dedicated fill lock (serializing the
pool's deterministic RNG stream) while draws only take the entry lock —
so concurrent queries from :mod:`repro.sched` never wait on a refill.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from repro.precompute.config import precompute_enabled

__all__ = ["Pool"]

# Matches repro.obs.metrics.BATCH_BUCKETS but kept literal so the pool
# module stays importable without the registry.
_REFILL_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class _PoolMetrics:
    """The per-pool instrument set the obs layer exports."""

    def __init__(self, registry, pool_name: str) -> None:
        labels = {"pool": pool_name}
        self.hits = registry.counter(
            "repro_precompute_hits_total",
            help="draws served from a precomputed pool",
            labels=labels,
        )
        self.misses = registry.counter(
            "repro_precompute_misses_total",
            help="draws that fell back to inline computation",
            labels=labels,
        )
        self.depth = registry.gauge(
            "repro_precompute_pool_depth",
            help="entries currently available in the pool",
            labels=labels,
        )
        self.refill_batch = registry.histogram(
            "repro_precompute_refill_batch_size",
            buckets=_REFILL_BUCKETS,
            help="entries produced per pool refill",
            labels=labels,
        )


class Pool:
    """One pool of one material kind under one parameter key.

    ``produce_batch(count, rng, engine)`` returns ``(entries, modexp)``:
    the freshly generated entries (in RNG-stream order) and how many
    modular exponentiations producing them cost — the offline work the
    online phase no longer pays.
    """

    def __init__(
        self,
        name: str,
        produce_batch: Callable[[int, Any, Any], tuple[list[Any], int]],
        rng,
        *,
        pool_size: int,
        low_water: int,
        metrics=None,
    ) -> None:
        self.name = name
        self.pool_size = pool_size
        self.low_water = low_water
        self._produce_batch = produce_batch
        self._rng = rng
        self._entries: deque[Any] = deque()
        self._lock = threading.Lock()
        self._fill_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.produced = 0
        self.refills = 0
        self.offline_modexp = 0
        self._metrics = _PoolMetrics(metrics, name) if metrics is not None else None

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def needs_refill(self) -> bool:
        return precompute_enabled() and self.depth < self.low_water

    def draw(self) -> Any | None:
        """Pop the oldest entry, or ``None`` when the pool is dry."""
        with self._lock:
            if self._entries:
                entry = self._entries.popleft()
                self.hits += 1
                if self._metrics is not None:
                    self._metrics.hits.inc()
                    self._metrics.depth.set(len(self._entries))
                return entry
            self.misses += 1
        if self._metrics is not None:
            self._metrics.misses.inc()
        return None

    def fill(self, count: int | None = None, engine=None) -> int:
        """Produce entries up to the high watermark; returns how many.

        ``count`` caps one fill step (the refill batch); ``None`` tops the
        pool all the way up.  Production runs under the fill lock so the
        pool's RNG stream stays sequential no matter which thread refills.
        """
        with self._fill_lock:
            missing = self.pool_size - len(self._entries)
            if count is not None:
                missing = min(missing, count)
            if missing <= 0:
                return 0
            entries, modexp = self._produce_batch(missing, self._rng, engine)
            with self._lock:
                self._entries.extend(entries)
                self.produced += len(entries)
                self.refills += 1
                self.offline_modexp += modexp
                depth = len(self._entries)
            if self._metrics is not None:
                self._metrics.refill_batch.observe(len(entries))
                self._metrics.depth.set(depth)
            return len(entries)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "depth": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "produced": self.produced,
                "refills": self.refills,
                "offline_modexp": self.offline_modexp,
            }


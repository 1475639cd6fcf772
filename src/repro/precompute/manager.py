"""Offline/online phase split: the correlated-randomness manager.

The classic SPDZ/Beaver observation applied to the DLA: most of the
crypto a query pays for — Pohlig-Hellman exponent pairs (with their
modular-inverse rejection loop), blinding factors for the randomized-map
rings, Shamir polynomial tails, Schnorr nonce commitments ``(k, g^k)`` —
depends only on *public parameters* (prime group, scheme shape), never
on the query.  One :class:`PrecomputeManager` per node produces that
material while the cluster is idle and hands it out at query time.

Every ``draw``-style method is total: it serves from the pool when the
kill switch is on and the pool has stock, and otherwise computes inline
**with the caller's own RNG stream, via the exact legacy code path** —
so ``REPRO_PRECOMPUTE=off`` is bitwise-identical to the pre-split tree.
Pool entries come from the manager's private RNG streams (one child per
pool), which keeps draws thread-safe and lets :mod:`repro.sched`'s
concurrent queries share one manager.

Security note (see docs/threat-model.md): pool contents are per-node
secrets.  They are produced locally, drawn locally, and only ever leave
the node inside the same protocol messages the on-demand computation
would have produced — the split adds no new wire traffic and no new
leakage categories.
"""

from __future__ import annotations

import threading
import time

from repro.crypto.pohlig_hellman import PohligHellmanCipher
from repro.crypto.rng import system_rng
from repro.crypto.shamir import Share
from repro.net.stats import CryptoOpCounter
from repro.perf import engine as perf_engine
from repro.precompute.config import PrecomputeConfig, precompute_enabled
from repro.precompute.pool import Pool

__all__ = ["PrecomputeManager"]

_MONOTONE_LOW, _MONOTONE_HIGH = 2**16, 2**32


class _RefillWorker(threading.Thread):
    """Background pool-filler.

    Daemon: CPython joins non-daemon threads *before* atexit handlers
    run, so a non-daemon worker would deadlock interpreter shutdown
    waiting for a stop that only the atexit pass issues.  The orderly
    path still exists — ``stop_refill_worker()`` is registered with the
    perf engine's shutdown hooks, and the atexit pass stops and joins
    the thread — the daemon flag only covers processes that exit without
    ever reaching it (e.g. ``os._exit``).
    """

    def __init__(self, manager: "PrecomputeManager", interval: float = 0.05) -> None:
        super().__init__(name="repro-precompute-refill", daemon=True)
        self._manager = manager
        self._interval = interval
        self._stop_event = threading.Event()
        self._wake = threading.Event()

    def nudge(self) -> None:
        self._wake.set()

    def stop(self) -> None:
        self._stop_event.set()
        self._wake.set()

    def run(self) -> None:  # pragma: no cover - exercised via manager tests
        while not self._stop_event.is_set():
            self._wake.wait(timeout=self._interval)
            self._wake.clear()
            if self._stop_event.is_set():
                return
            try:
                self._manager.refill_low_pools()
            except Exception:
                # A failed refill must never kill the worker: draws just
                # fall back to inline computation until the next pass.
                continue


class PrecomputeManager:
    """Per-node pools of correlated randomness with background refill."""

    def __init__(self, rng=None, engine=None, metrics=None,
                 config: PrecomputeConfig | None = None) -> None:
        self.rng = rng or system_rng()
        self.config = config or PrecomputeConfig.from_env()
        self.metrics = metrics
        self._engine_spec = engine
        self._pools: dict[tuple, Pool] = {}
        self._registry_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # kind -> [seconds, calls, pooled_calls]: the online-phase ledger
        # the P6 benchmark reads.
        self._online: dict[str, list[float]] = {}
        # Global offline ledger: everything pool production ever cost.
        self.offline_ops = CryptoOpCounter()
        self._worker: _RefillWorker | None = None
        self._worker_lock = threading.Lock()
        if self.config.worker:
            self.start_refill_worker()

    # -- infrastructure --------------------------------------------------------

    def _engine(self):
        return perf_engine.resolve_engine(self._engine_spec)

    def _pool(self, kind: str, key: tuple, name: str, produce_batch) -> Pool:
        full_key = (kind,) + key
        with self._registry_lock:
            pool = self._pools.get(full_key)
            if pool is None:
                pool = Pool(
                    name,
                    produce_batch,
                    self.rng.spawn(f"pool:{kind}:{key!r}"),
                    pool_size=self.config.pool_size,
                    low_water=self.config.low_water,
                    metrics=self.metrics,
                )
                self._pools[full_key] = pool
            return pool

    def _draw(self, kind: str, key: tuple, name: str, produce_batch):
        if not precompute_enabled():
            return None
        pool = self._pool(kind, key, name, produce_batch)
        entry = pool.draw()
        if pool.needs_refill:
            self._nudge_worker()
        return entry

    def _record(self, kind: str, seconds: float, pooled: bool) -> None:
        with self._stats_lock:
            row = self._online.setdefault(kind, [0.0, 0, 0])
            row[0] += seconds
            row[1] += 1
            row[2] += int(pooled)

    # -- material producers ----------------------------------------------------

    def _produce_ph(self, prime: int):
        def produce(count, rng, engine):
            keys = [
                PohligHellmanCipher.generate(prime, rng).key for _ in range(count)
            ]
            self.offline_ops.add("offline.keygen", count)
            return keys, 0

        return produce

    def _produce_affine(self, prime: int):
        def produce(count, rng, engine):
            pairs = [
                (rng.randrange(1, prime), rng.randbelow(prime))
                for _ in range(count)
            ]
            self.offline_ops.add("offline.blinding", count)
            return pairs, 0

        return produce

    def _produce_monotone(self):
        def produce(count, rng, engine):
            slopes = [
                rng.randrange(_MONOTONE_LOW, _MONOTONE_HIGH) for _ in range(count)
            ]
            self.offline_ops.add("offline.blinding", count)
            return slopes, 0

        return produce

    def _produce_shamir(self, p: int, k: int, xs: tuple[int, ...]):
        def produce(count, rng, engine):
            entries = []
            for _ in range(count):
                tail = [rng.randbelow(p) for _ in range(k - 1)]
                evals = []
                for x in xs:
                    acc = 0
                    for coeff in reversed(tail):
                        acc = (acc * x + coeff) % p
                    evals.append((acc * x) % p)  # t(x) = x·(a1 + a2·x + …)
                entries.append(tuple(evals))
            self.offline_ops.add("offline.share_poly", count)
            return entries, 0

        return produce

    def _produce_exp_pair(self, p: int, q: int, base: int):
        def produce(count, rng, engine):
            ks = [rng.randrange(1, q) for _ in range(count)]
            engine = engine if engine is not None else self._engine()
            rs = engine.pow_many([base] * count, ks, p)
            self.offline_ops.add("offline.modexp", count)
            self.offline_ops.add("offline.blind_nonce", count)
            return list(zip(ks, rs)), count

        return produce

    # -- draws (total: pool hit, else the exact legacy computation) ------------

    @staticmethod
    def _attribute(ops, label: str, pooled: bool) -> None:
        """Mark one pooled draw in the *consumer's* op counter.

        Offline labels never touch ``total.modexp`` here: they re-label
        setup work the online path no longer performs, so a warm query's
        counter stays comparable to the pool-disabled run.
        """
        if pooled and ops is not None:
            ops.add(label, 1)

    def ph_cipher(self, prime: int, party_id: str, rng, ops=None) -> PohligHellmanCipher:
        """A commutative cipher for ``party_id`` — pooled key, or fresh."""
        t0 = time.perf_counter()
        key = self._draw(
            "ph", (prime, party_id),
            f"ph:{prime.bit_length()}:{party_id}", self._produce_ph(prime),
        )
        pooled = key is not None
        cipher = (
            PohligHellmanCipher(key) if pooled
            else PohligHellmanCipher.generate(prime, rng)
        )
        self._attribute(ops, "offline.keygen", pooled)
        self._record("ph", time.perf_counter() - t0, pooled)
        return cipher

    def affine_pair(self, prime: int, root_rng, label: str, ops=None) -> tuple[int, int]:
        """An affine blinding ``(a, b)`` over ``Z_prime`` (a nonzero)."""
        t0 = time.perf_counter()
        entry = self._draw(
            "affine", (prime,),
            f"affine:{prime.bit_length()}", self._produce_affine(prime),
        )
        pooled = entry is not None
        if not pooled:
            rng = root_rng.spawn(f"blinding:{label}")
            entry = (rng.randrange(1, prime), rng.randbelow(prime))
        self._attribute(ops, "offline.blinding", pooled)
        self._record("affine", time.perf_counter() - t0, pooled)
        return entry

    def monotone_pair(self, root_rng, label: str, value_bound: int,
                      ops=None) -> tuple[int, int]:
        """A monotone blinding ``(a, b)``; the offset stays online because
        it depends on the data-derived ``value_bound``."""
        t0 = time.perf_counter()
        slope = self._draw("monotone", (), "monotone", self._produce_monotone())
        pooled = slope is not None
        rng = root_rng.spawn(f"monotone:{label}")
        if not pooled:
            slope = rng.randrange(_MONOTONE_LOW, _MONOTONE_HIGH)
        offset = rng.randrange(0, slope * max(value_bound, 1))
        self._attribute(ops, "offline.blinding", pooled)
        self._record("monotone", time.perf_counter() - t0, pooled)
        return slope, offset

    def shamir_share(self, scheme, party_id: str, secret: int, rng,
                     ops=None) -> list[Share]:
        """Shamir shares of ``secret`` under ``scheme`` for one dealer.

        A pooled entry is the tail evaluations ``t(x_j)`` of a random
        degree-(k-1) polynomial with ``t(0) = 0``; the dealer's share at
        ``x_j`` is then ``secret + t(x_j) mod p`` — the same value the
        legacy Horner evaluation produces for the same polynomial.
        """
        t0 = time.perf_counter()
        xs = tuple(scheme.xs)
        evals = self._draw(
            "shamir", (scheme.p, scheme.k, xs, party_id),
            f"shamir:{scheme.k}of{len(xs)}:{scheme.p.bit_length()}:{party_id}",
            self._produce_shamir(scheme.p, scheme.k, xs),
        )
        pooled = evals is not None
        if pooled:
            base = secret % scheme.p
            shares = [
                Share(x=x, y=(base + t) % scheme.p, p=scheme.p)
                for x, t in zip(xs, evals)
            ]
        else:
            shares = scheme.share(secret, rng=rng)
        self._attribute(ops, "offline.share_poly", pooled)
        self._record("shamir", time.perf_counter() - t0, pooled)
        return shares

    def exp_pair(self, p: int, q: int, base: int, tag: str, rng) -> tuple[int, int]:
        """A Schnorr-style nonce pair ``(k, base^k mod p)``, k in [1, q)."""
        t0 = time.perf_counter()
        entry = self._draw(
            "blind", (p, q, base, tag), f"blind:{tag}",
            self._produce_exp_pair(p, q, base),
        )
        pooled = entry is not None
        if not pooled:
            k = rng.randrange(1, q)
            entry = (k, pow(base, k, p))
        self._record("blind", time.perf_counter() - t0, pooled)
        return entry

    # -- warming ---------------------------------------------------------------

    def warm_smc(self, prime: int, party_ids, schemes=()) -> int:
        """Fill the SMC-facing pools for one prime group to the high
        watermark: a key pool per party, the shared blinding pools, and
        (optionally) Shamir tail pools for known scheme shapes."""
        filled = 0
        engine = self._engine()
        for party_id in party_ids:
            filled += self._pool(
                "ph", (prime, party_id),
                f"ph:{prime.bit_length()}:{party_id}", self._produce_ph(prime),
            ).fill(engine=engine)
        filled += self._pool(
            "affine", (prime,),
            f"affine:{prime.bit_length()}", self._produce_affine(prime),
        ).fill(engine=engine)
        filled += self._pool(
            "monotone", (), "monotone", self._produce_monotone()
        ).fill(engine=engine)
        for scheme in schemes:
            filled += self.warm_shamir(scheme, party_ids)
        return filled

    def warm_shamir(self, scheme, party_ids) -> int:
        filled = 0
        xs = tuple(scheme.xs)
        for party_id in party_ids:
            filled += self._pool(
                "shamir", (scheme.p, scheme.k, xs, party_id),
                f"shamir:{scheme.k}of{len(xs)}:{scheme.p.bit_length()}:{party_id}",
                self._produce_shamir(scheme.p, scheme.k, xs),
            ).fill(engine=self._engine())
        return filled

    def warm_blind(self, p: int, q: int, base: int, tag: str) -> int:
        return self._pool(
            "blind", (p, q, base, tag), f"blind:{tag}",
            self._produce_exp_pair(p, q, base),
        ).fill(engine=self._engine())

    def warm_witness(self, accumulator) -> int:
        """Pre-build ``accumulator``'s fixed-base table for ``x0`` — the
        one piece of integrity-fold material that is input-independent;
        returns the rows built (0 once it is complete)."""
        return accumulator.build_base_table()

    # -- background refill -----------------------------------------------------

    def refill_low_pools(self) -> int:
        """One refill pass: top up every pool below its low watermark."""
        if not precompute_enabled():
            return 0
        filled = 0
        engine = self._engine()
        with self._registry_lock:
            pools = list(self._pools.values())
        for pool in pools:
            while pool.needs_refill:
                produced = pool.fill(self.config.refill_batch, engine=engine)
                if produced == 0:
                    break
                filled += produced
        return filled

    def _nudge_worker(self) -> None:
        worker = self._worker
        if worker is not None:
            worker.nudge()

    def start_refill_worker(self) -> None:
        """Start (idempotently) the background refill thread.

        The thread is registered with the perf engine's shutdown hooks so
        interpreter exit — or an explicit ``shutdown_shared_pool()`` —
        stops and joins it before the process-pool teardown.
        """
        with self._worker_lock:
            if self._worker is not None and self._worker.is_alive():
                return
            self._worker = _RefillWorker(self)
            perf_engine.register_shutdown_hook(self.stop_refill_worker)
            self._worker.start()

    def stop_refill_worker(self) -> None:
        """Stop and join the refill thread (idempotent)."""
        with self._worker_lock:
            worker = self._worker
            self._worker = None
        if worker is not None:
            worker.stop()
            worker.join()
            perf_engine.unregister_shutdown_hook(self.stop_refill_worker)

    @property
    def refill_worker_alive(self) -> bool:
        worker = self._worker
        return worker is not None and worker.is_alive()

    # -- introspection ---------------------------------------------------------

    def pool_snapshot(self) -> dict[str, dict[str, int]]:
        """Per-pool depth/hit/miss/refill counters (for the demo CLI,
        ``trace-report`` and tests; Prometheus export goes through the
        attached :class:`~repro.obs.metrics.MetricsRegistry`)."""
        with self._registry_lock:
            pools = list(self._pools.values())
        return {pool.name: pool.snapshot() for pool in pools}

    def online_stats(self) -> dict[str, dict[str, float]]:
        """Per-kind online-phase ledger: wall-clock seconds spent in the
        draw-or-compute step, how many draws, how many were pool hits."""
        with self._stats_lock:
            return {
                kind: {"seconds": row[0], "calls": row[1], "pooled": row[2]}
                for kind, row in sorted(self._online.items())
            }

    def hit_rate(self) -> float:
        snap = self.pool_snapshot()
        hits = sum(row["hits"] for row in snap.values())
        total = hits + sum(row["misses"] for row in snap.values())
        return hits / total if total else 0.0

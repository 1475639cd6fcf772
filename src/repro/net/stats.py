"""Traffic and cost accounting.

The paper's central quantitative claim is that *relaxed* secure multiparty
computation is drastically cheaper than classical MPC.  To measure that
claim we count everything: messages, bytes, per-kind breakdowns, and crypto
operations (modular exponentiations dominate).  Every transport owns a
:class:`NetworkStats`; SMC protocols additionally report into a
:class:`CryptoOpCounter`.

The ledgers are the only record: nothing is mirrored anywhere else.
``/metrics`` renders them on request (:func:`repro.obs.metrics.collect`),
which is why the two distributions a scrape shows — per-message size and
per-stage wall time — are :class:`~repro.obs.metrics.Histogram` fields
here.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS_SECONDS,
    SIZE_BUCKETS_BYTES,
    Histogram,
)

__all__ = ["NetworkStats", "CryptoOpCounter", "CostReport"]


@dataclass
class NetworkStats:
    """Counters a transport updates on every delivery.

    Besides traffic counts, transports and protocols record *per-stage
    wall-clock timings* here (``time_stage``/``record_timing``): keys like
    ``"ssi.encrypt"`` accumulate the seconds spent in that stage across
    the run, so cost reports can attribute wall-clock to crypto stages,
    not just message counts.

    All mutators take one internal lock: the service-wide stats receive
    merges from sync callers and from the scheduler's worker thread, and
    increments from different threads must not lose updates (``x += 1``
    is not atomic in CPython).  Single-threaded use
    pays one uncontended lock acquire per record.
    """

    messages: int = 0
    bytes: int = 0
    dropped: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    by_link: Counter = field(default_factory=Counter)
    #: Connection-pool health (TCP transports): per-peer count of live
    #: pooled connections, and per-peer reconnect events.  The simulator
    #: has no connections; both stay empty there.
    connections_open: Counter = field(default_factory=Counter)
    reconnects: Counter = field(default_factory=Counter)
    #: Per-message encoded size, and per stage the wall time of each pass
    #: (:attr:`timings` / :attr:`timing_calls` are their sums and counts).
    sizes: Histogram = field(
        default_factory=lambda: Histogram(SIZE_BUCKETS_BYTES), repr=False, compare=False
    )
    stage_seconds: dict = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, kind: str, size: int, src: str, dst: str) -> None:
        with self._lock:
            self.messages += 1
            self.bytes += size
            self.by_kind[kind] += 1
            self.bytes_by_kind[kind] += size
            self.by_link[(src, dst)] += 1
        self.sizes.observe(size)

    def record_drop(self) -> None:
        with self._lock:
            self.dropped += 1

    def record_connect(self, peer: str, reconnect: bool = False) -> None:
        """A pooled connection to ``peer`` opened (``reconnect``: reopened)."""
        with self._lock:
            self.connections_open[peer] += 1
            if reconnect:
                self.reconnects[peer] += 1

    def record_disconnect(self, peer: str) -> None:
        """A pooled connection to ``peer`` closed."""
        with self._lock:
            left = self.connections_open[peer] - 1
            if left > 0:
                self.connections_open[peer] = left
            else:
                self.connections_open.pop(peer, None)

    def record_timing(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall-clock against a named stage."""
        with self._lock:
            hist = self.stage_seconds.get(stage)
            if hist is None:
                hist = self.stage_seconds[stage] = Histogram(LATENCY_BUCKETS_SECONDS)
        hist.observe(seconds)

    def merge(self, other: "NetworkStats") -> None:
        """Fold another ledger's traffic in (no lost adds).

        Modelled on :meth:`CryptoOpCounter.merge`: the service gives each
        sync call and each scheduled query a private network, and folds
        every one of them into its service-wide ledger when it ends, so ``/metrics`` reads one ledger whose totals are the
        sum of the calls' cost reports.  The pool counts
        (``connections_open``, ``reconnects``) describe one transport's
        sockets, not traffic, and are not folded.
        """
        with other._lock:
            messages, size, dropped = other.messages, other.bytes, other.dropped
            by_kind, bytes_by_kind = Counter(other.by_kind), Counter(other.bytes_by_kind)
            by_link = Counter(other.by_link)
            stages = dict(other.stage_seconds)
        with self._lock:
            self.messages += messages
            self.bytes += size
            self.dropped += dropped
            self.by_kind.update(by_kind)
            self.bytes_by_kind.update(bytes_by_kind)
            self.by_link.update(by_link)
            for stage, hist in stages.items():
                mine = self.stage_seconds.get(stage)
                if mine is None:
                    mine = self.stage_seconds[stage] = Histogram(LATENCY_BUCKETS_SECONDS)
                mine.merge(hist)
        self.sizes.merge(other.sizes)

    @property
    def timings(self) -> dict:
        """Seconds spent per stage, summed over every pass."""
        return self.snapshot()["timings"]

    @property
    def timing_calls(self) -> Counter:
        """Passes per stage."""
        return Counter(self.snapshot()["timing_calls"])

    @contextmanager
    def time_stage(self, stage: str):
        """Context manager timing one pass through a named stage."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_timing(stage, time.perf_counter() - start)

    def reset(self) -> None:
        with self._lock:
            self.messages = 0
            self.bytes = 0
            self.dropped = 0
            self.by_kind.clear()
            self.bytes_by_kind.clear()
            self.by_link.clear()
            self.stage_seconds.clear()
            self.sizes = Histogram(SIZE_BUCKETS_BYTES)
            # connections_open mirrors *live* pool state, not a tally of
            # past events — resetting traffic counters must not desync the
            # count from the sockets that are still open.
            self.reconnects.clear()

    def snapshot(self) -> dict:
        """Plain-dict copy for logging / assertions (JSON-safe throughout:
        link tuples are flattened to ``"src->dst"`` strings)."""
        with self._lock:
            return {
                "messages": self.messages,
                "bytes": self.bytes,
                "dropped": self.dropped,
                "by_kind": dict(self.by_kind),
                "bytes_by_kind": dict(self.bytes_by_kind),
                "by_link": {
                    f"{src}->{dst}": n for (src, dst), n in self.by_link.items()
                },
                "timings": {s: h.sum for s, h in self.stage_seconds.items()},
                "timing_calls": {s: h.count for s, h in self.stage_seconds.items()},
                "connections_open": dict(self.connections_open),
                "reconnects": dict(self.reconnects),
            }


@dataclass
class CryptoOpCounter:
    """Counts of expensive cryptographic operations, by label."""

    ops: Counter = field(default_factory=Counter)
    #: Modexps per bulk call (:meth:`repro.smc.base.SmcContext.count_modexp`).
    batch_sizes: Histogram = field(
        default_factory=lambda: Histogram(BATCH_BUCKETS), repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def add(self, label: str, count: int = 1) -> None:
        with self._lock:
            self.ops[label] += count

    @property
    def modexp(self) -> int:
        """Total modular exponentiations (the dominant cost everywhere).

        Protocols record both per-party keys (``P0.modexp``) and a running
        ``total.modexp``; when the total key exists it is authoritative
        (summing everything would double-count).
        """
        if "total.modexp" in self.ops:
            return self.ops["total.modexp"]
        return sum(v for k, v in self.ops.items() if k.endswith("modexp"))

    def merge(self, other: "CryptoOpCounter") -> None:
        """Fold another counter's totals in (one lock hold, no lost adds).

        The scheduler gives each query its own counter and
        merges it into the service-wide ledger on completion, so global
        accounting stays exact without contending per-op.
        """
        with other._lock:
            delta = Counter(other.ops)
        with self._lock:
            self.ops.update(delta)
        self.batch_sizes.merge(other.batch_sizes)

    def reset(self) -> None:
        with self._lock:
            self.ops.clear()
            self.batch_sizes = Histogram(BATCH_BUCKETS)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.ops)


@dataclass(frozen=True)
class CostReport:
    """A combined, immutable cost summary returned by protocol runs."""

    messages: int
    bytes: int
    crypto_ops: dict
    virtual_time: float = 0.0
    dropped: int = 0

    @classmethod
    def collect(
        cls,
        net_stats: NetworkStats,
        crypto: CryptoOpCounter | None = None,
        virtual_time: float = 0.0,
    ) -> "CostReport":
        return cls(
            messages=net_stats.messages,
            bytes=net_stats.bytes,
            crypto_ops=crypto.snapshot() if crypto else {},
            virtual_time=virtual_time,
            dropped=net_stats.dropped,
        )

    @property
    def modexp(self) -> int:
        if "total.modexp" in self.crypto_ops:
            return self.crypto_ops["total.modexp"]
        return sum(v for k, v in self.crypto_ops.items() if k.endswith("modexp"))

"""Traffic and cost accounting.

The paper's central quantitative claim is that *relaxed* secure multiparty
computation is drastically cheaper than classical MPC.  To measure that
claim we count everything: messages, bytes, per-kind breakdowns, and crypto
operations (modular exponentiations dominate).  Every transport owns a
:class:`NetworkStats`; SMC protocols additionally report into a
:class:`CryptoOpCounter`.

Both ledgers can optionally *feed* a
:class:`~repro.obs.metrics.MetricsRegistry` (``attach_metrics``): every
recorded message, drop, timing, and crypto op then also updates the
registry's counters and histograms, so one Prometheus dump covers the
whole run.  Detached (the default), neither ledger touches the registry
at all.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import LATENCY_BUCKETS_SECONDS, SIZE_BUCKETS_BYTES

__all__ = ["NetworkStats", "CryptoOpCounter", "CostReport"]


@dataclass
class NetworkStats:
    """Counters a transport updates on every delivery.

    Besides traffic counts, transports and protocols record *per-stage
    wall-clock timings* here (``time_stage``/``record_timing``): keys like
    ``"ssi.encrypt"`` accumulate the seconds spent in that stage across
    the run, so cost reports can attribute wall-clock to crypto stages,
    not just message counts.

    All mutators take one internal lock: when the scheduler
    (:mod:`repro.sched`) multiplexes concurrent queries over a shared
    transport, increments from different worker threads must not lose
    updates (``x += 1`` is not atomic in CPython).  Single-threaded use
    pays one uncontended lock acquire per record.
    """

    messages: int = 0
    bytes: int = 0
    dropped: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    by_link: Counter = field(default_factory=Counter)
    timings: dict = field(default_factory=dict)
    timing_calls: Counter = field(default_factory=Counter)
    #: Connection-pool health (TCP transports): per-peer count of live
    #: pooled connections, and per-peer reconnect events.  The simulator
    #: has no connections; both stay empty there.
    connections_open: Counter = field(default_factory=Counter)
    reconnects: Counter = field(default_factory=Counter)
    _metrics: object = field(default=None, init=False, repr=False, compare=False)
    _metrics_prefix: str = field(
        default="repro_net", init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def attach_metrics(self, registry, prefix: str = "repro_net") -> None:
        """Mirror every future record into a MetricsRegistry."""
        self._metrics = registry
        self._metrics_prefix = prefix

    def record(self, kind: str, size: int, src: str, dst: str) -> None:
        with self._lock:
            self.messages += 1
            self.bytes += size
            self.by_kind[kind] += 1
            self.bytes_by_kind[kind] += size
            self.by_link[(src, dst)] += 1
        if self._metrics is not None:
            p = self._metrics_prefix
            self._metrics.counter(
                f"{p}_messages_total", help="messages delivered", labels={"kind": kind}
            ).inc()
            self._metrics.counter(
                f"{p}_bytes_total", help="payload bytes delivered", labels={"kind": kind}
            ).inc(size)
            self._metrics.histogram(
                f"{p}_message_size_bytes",
                buckets=SIZE_BUCKETS_BYTES,
                help="per-message encoded size",
            ).observe(size)

    def record_drop(self) -> None:
        with self._lock:
            self.dropped += 1
        if self._metrics is not None:
            self._metrics.counter(
                f"{self._metrics_prefix}_dropped_total", help="messages dropped"
            ).inc()

    def record_connect(self, peer: str, reconnect: bool = False) -> None:
        """A pooled connection to ``peer`` opened (``reconnect``: reopened).

        Feeds the ``repro_net_connections_open`` gauge and — for reopens
        after a broken pipe — the ``repro_net_reconnects_total`` counter,
        both labelled per peer.
        """
        with self._lock:
            self.connections_open[peer] += 1
            if reconnect:
                self.reconnects[peer] += 1
        if self._metrics is not None:
            p = self._metrics_prefix
            self._metrics.gauge(
                f"{p}_connections_open",
                help="live pooled transport connections",
                labels={"peer": peer},
            ).inc()
            if reconnect:
                self._metrics.counter(
                    f"{p}_reconnects_total",
                    help="pooled connections reopened after a failure",
                    labels={"peer": peer},
                ).inc()

    def record_disconnect(self, peer: str) -> None:
        """A pooled connection to ``peer`` closed."""
        with self._lock:
            left = self.connections_open[peer] - 1
            if left > 0:
                self.connections_open[peer] = left
            else:
                self.connections_open.pop(peer, None)
        if self._metrics is not None:
            self._metrics.gauge(
                f"{self._metrics_prefix}_connections_open",
                help="live pooled transport connections",
                labels={"peer": peer},
            ).dec()

    def record_timing(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall-clock against a named stage."""
        with self._lock:
            self.timings[stage] = self.timings.get(stage, 0.0) + seconds
            self.timing_calls[stage] += 1
        if self._metrics is not None:
            self._metrics.histogram(
                f"{self._metrics_prefix}_stage_latency_seconds",
                buckets=LATENCY_BUCKETS_SECONDS,
                help="wall-clock per pass through a named stage",
                labels={"stage": stage},
            ).observe(seconds)

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
            self.timings.clear()
            self.timing_calls.clear()
            # connections_open mirrors *live* pool state, not a tally of
            # past events — resetting traffic counters must not desync the
            # gauge from the sockets that are still open.
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
                "timings": dict(self.timings),
                "timing_calls": dict(self.timing_calls),
                "connections_open": dict(self.connections_open),
                "reconnects": dict(self.reconnects),
            }


@dataclass
class CryptoOpCounter:
    """Counts of expensive cryptographic operations, by label."""

    ops: Counter = field(default_factory=Counter)
    _metrics: object = field(default=None, init=False, repr=False, compare=False)
    _metrics_prefix: str = field(
        default="repro_crypto", init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def attach_metrics(self, registry, prefix: str = "repro_crypto") -> None:
        """Mirror every future op count into a MetricsRegistry."""
        self._metrics = registry
        self._metrics_prefix = prefix

    def add(self, label: str, count: int = 1) -> None:
        with self._lock:
            self.ops[label] += count
        if self._metrics is not None:
            self._metrics.counter(
                f"{self._metrics_prefix}_ops_total",
                help="expensive crypto operations",
                labels={"op": label},
            ).inc(count)

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

        The scheduler gives each concurrent query its own counter and
        merges it into the service-wide ledger on completion, so global
        accounting stays exact without contending per-op.
        """
        with other._lock:
            delta = Counter(other.ops)
        with self._lock:
            self.ops.update(delta)

    def reset(self) -> None:
        with self._lock:
            self.ops.clear()

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

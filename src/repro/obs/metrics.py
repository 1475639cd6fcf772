"""Counters, gauges, and fixed-bucket histograms with a Prometheus dump.

A :class:`MetricsRegistry` holds metric *families* keyed by name; each
family holds one instance per label set.  The shapes mirror the
Prometheus exposition format so :meth:`MetricsRegistry.render_prometheus`
is a faithful text dump.

Nothing pushes into a registry.  The code keeps its counts in ledgers
(:class:`~repro.net.stats.NetworkStats`,
:class:`~repro.net.stats.CryptoOpCounter`, cache and scheduler counters,
the observatory's per-tenant ledgers, the store's WAL and checkpoint
counts), and :func:`collect` builds a fresh registry from them whenever
``/metrics`` is read.  :func:`collect` is the only code that names a
metric family.

Fixed buckets keep histograms allocation-free on the hot path: the three
bucket ladders below cover the quantities the DLA run actually produces
(frame sizes from a few hundred bytes to megabyte convoy bundles,
per-stage latencies from microseconds to seconds, and modexp batch sizes
from singleton equality checks to thousand-element rings).  A ledger
that needs a distribution owns a :class:`Histogram` directly.
"""

from __future__ import annotations

import bisect
import re
import threading

from repro.errors import ConfigurationError
from repro.obs.export import escape_help_text, escape_label_value

# One process-wide lock guards every Histogram: a histogram is also a
# ledger type, observed from the scheduler's worker and from sync callers
# on other threads, and a single coarse lock keeps it exact without per-instance
# lock storage (__slots__).  A registry is built by one thread per
# request, so its counters and gauges need no lock.
_LOCK = threading.Lock()

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SIZE_BUCKETS_BYTES",
    "LATENCY_BUCKETS_SECONDS",
    "BATCH_BUCKETS",
    "collect",
]

SIZE_BUCKETS_BYTES = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)
LATENCY_BUCKETS_SECONDS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: A family name Prometheus accepts (its exposition-format grammar).
_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, in-flight work)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram: cumulative counts, sum, and observation count."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        if not buckets:
            raise ConfigurationError("histogram needs at least one bucket bound")
        ordered = tuple(sorted(buckets))
        if len(set(ordered)) != len(ordered):
            raise ConfigurationError("histogram bucket bounds must be distinct")
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)  # final slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: int | float) -> None:
        with _LOCK:
            self.counts[bisect.bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with the same bounds into this one."""
        if other.buckets != self.buckets:
            raise ConfigurationError("cannot merge histograms with different buckets")
        with _LOCK:
            for i, c in enumerate(other.counts):
                self.counts[i] += c
            self.sum += other.sum
            self.count += other.count

    def cumulative(self) -> list[int]:
        """Prometheus-style cumulative counts (one per bound, plus +Inf)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class _Family:
    __slots__ = ("name", "kind", "help", "buckets", "instances")

    def __init__(self, name: str, kind: str, help_: str, buckets=None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_
        self.buckets = buckets
        self.instances: dict[tuple, object] = {}


def _label_key(labels: dict | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


class MetricsRegistry:
    """Get-or-create registry of metric families.

    ``counter`` / ``gauge`` / ``histogram`` return the live instance for a
    (name, labels) pair, creating it on first use — call sites never need
    registration boilerplate.  Registering one name as two different
    kinds is a bug and raises, as does a family name Prometheus would
    reject (anything outside ``[a-zA-Z_:][a-zA-Z0-9_:]*``).
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _instance(self, name: str, kind: str, help_: str, labels, make, buckets=None):
        family = self._families.get(name)
        if family is None:
            if not _NAME.fullmatch(name):
                raise ConfigurationError(f"invalid metric family name {name!r}")
            family = self._families[name] = _Family(name, kind, help_, buckets)
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        key = _label_key(labels)
        metric = family.instances.get(key)
        if metric is None:
            metric = family.instances[key] = make(family)
        return metric

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        return self._instance(name, "counter", help, labels, lambda _: Counter())

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        return self._instance(name, "gauge", help, labels, lambda _: Gauge())

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        help: str = "",
        labels: dict | None = None,
    ) -> Histogram:
        if labels and "le" in labels:
            # "le" is reserved for the bucket bound; a user label of the
            # same name would render two le= pairs on every _bucket line.
            raise ConfigurationError("histogram label 'le' is reserved")
        return self._instance(
            name, "histogram", help, labels, lambda family: Histogram(family.buckets),
            buckets or LATENCY_BUCKETS_SECONDS,
        )

    # -- export ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format dump of every family."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {escape_help_text(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.instances):
                metric = family.instances[key]
                suffix = _label_suffix(key)
                if isinstance(metric, Histogram):
                    cumulative = metric.cumulative()
                    bounds = [*(str(b) for b in metric.buckets), "+Inf"]
                    for bound, count in zip(bounds, cumulative):
                        if key:
                            labelled = _label_suffix(key + (("le", bound),))
                        else:
                            labelled = _label_suffix((("le", bound),))
                        lines.append(f"{name}_bucket{labelled} {count}")
                    lines.append(f"{name}_sum{suffix} {metric.sum}")
                    lines.append(f"{name}_count{suffix} {metric.count}")
                else:
                    lines.append(f"{name}{suffix} {metric.value}")
        return "\n".join(lines) + ("\n" if lines else "")


# -- the collector -----------------------------------------------------------

_NET, _LAT, _CACHE = "repro_net_", LATENCY_BUCKETS_SECONDS, "repro_cache_"


def collect(service) -> MetricsRegistry:
    """A fresh registry built from ``service``'s ledgers: the ``/metrics`` body.

    Reads, never writes: every number is a ledger the code keeps for its
    own sake (``docs/observability.md`` names each family's source), so
    nothing is paid between scrapes.  Traffic is the service-wide
    :class:`~repro.net.stats.NetworkStats` every sync call and every
    scheduled query folds its private network into, so
    ``repro_net_messages_total`` is the sum of the calls' cost reports.
    """
    reg = MetricsRegistry()

    def count(name, help_, value, **labels):
        reg.counter(name, help_, labels).inc(value)

    def gauge(name, help_, value, **labels):
        reg.gauge(name, help_, labels).inc(value)  # same-named caches add up

    def hist(name, buckets, help_, ledgers, **labels):
        family = reg.histogram(name, buckets, help_, labels)
        for ledger in ledgers:
            family.merge(ledger)

    sched = service._scheduler
    if sched is not None and sched._closed:
        sched = None
    net = service.net_stats
    traffic = net.snapshot()
    for kind, n in traffic["by_kind"].items():
        count(_NET + "messages_total", "messages delivered", n, kind=kind)
    for kind, n in traffic["bytes_by_kind"].items():
        count(_NET + "bytes_total", "payload bytes delivered", n, kind=kind)
    count(_NET + "dropped_total", "messages dropped", traffic["dropped"])
    hist(_NET + "message_size_bytes", SIZE_BUCKETS_BYTES, "per-message encoded size",
         [net.sizes])
    for stage, seconds in list(net.stage_seconds.items()):
        hist(_NET + "stage_latency_seconds", _LAT,
             "wall-clock per pass through a named stage", [seconds], stage=stage)
    for event, n in dict(service.resilience_stats).items():
        count(f"repro_resilience_{event}_total", "reliability-layer event count", n)

    ops = service.ctx.crypto_ops
    for op, n in ops.snapshot().items():
        count("repro_crypto_ops_total", "expensive crypto operations", n, op=op)
    hist("repro_crypto_modexp_batch_size", BATCH_BUCKETS,
         "modexps recorded per bulk call", [ops.batch_sizes])

    if sched is not None:
        _scheduler(sched, count, gauge, hist)
    caches = [service.column_cache, service.subplan_memo, service.query_memo,
              service._signatures._kept]
    for stats in (cache.stats for cache in caches):
        count(_CACHE + "hits_total", "cache lookups served", stats.hits,
              cache=stats.name)
        count(_CACHE + "misses_total", "cache lookups recomputed", stats.misses,
              cache=stats.name)
        count(_CACHE + "evictions_total", "LRU evictions", stats.evictions,
              cache=stats.name)
        gauge(_CACHE + "entries", "live cache entries", stats.entries, cache=stats.name)

    _observatory(service.observatory, count, gauge)
    count("repro_obs_orphan_events_total", "tracer events fired on threads with no "
          "open span", service.tracer.orphan_events_total)
    standing = service.standing
    gauge("repro_standing_queries", "standing queries currently registered",
          len(standing))
    count("repro_standing_deltas_total", "non-empty per-epoch deltas pushed to "
          "standing queries", standing.deltas_pushed)
    count("repro_standing_epochs_total", "standing-query evaluation epochs",
          standing.epoch)
    count("repro_ingest_records_total", "records ingested through append_stream",
          service.ingested_rows)
    if hasattr(service.store, "wals"):  # the durable backend
        _store(service.store, service.last_recovery, count, gauge, hist)
    return reg


def _scheduler(sched, count, gauge, hist) -> None:
    gauge("repro_sched_queue_depth", "queries queued and not yet started",
          sched._waiting)
    gauge("repro_sched_in_flight", "queries currently executing (0 or 1)",
          sched.in_flight)
    hist("repro_sched_admission_wait_seconds", _LAT,
         "seconds between submit and the start of execution", [sched.admission_wait])
    count("repro_sched_submitted_total", "queries admitted", sched.submitted)
    count("repro_sched_completed_total", "queries finished successfully",
          sched.completed)
    count("repro_sched_failed_total", "queries finished with an error", sched.failed)


def _observatory(observatory, count, gauge) -> None:
    if observatory.budget:
        gauge("repro_obs_leakage_budget", "configured per-query leakage-event budget",
              observatory.budget)
    with observatory._lock:
        tenants = [(name, ledger.c_queries[-1], ledger.c_dla(), ledger.leakage_events,
                    ledger.over_budget) for name, ledger in observatory._tenants.items()]
    for tenant, c_query, c_dla, events, over in tenants:
        gauge("repro_obs_c_query", "C_query (eq. 12) of the most recent query",
              c_query, tenant=tenant)
        gauge("repro_obs_c_dla", "running C_DLA (eq. 13): mean C_query this session",
              c_dla, tenant=tenant)
        count("repro_obs_leakage_events_total",
              "leakage-ledger entries attributed to queries", events, tenant=tenant)
        count("repro_obs_leakage_budget_warnings_total",
              "queries whose leakage exceeded REPRO_OBS_LEAKAGE_BUDGET", over,
              tenant=tenant)


def _store(store, recovery, count, gauge, hist) -> None:
    wals = list(store.wals.values())
    count("repro_store_wal_records_total", "records appended to the write-ahead log",
          sum(wal.records_appended for wal in wals))
    hist("repro_store_wal_flush_seconds", _LAT,
         "wall time of one WAL write, one per node per batch (write + fsync policy)",
         [wal.append_seconds for wal in wals])
    gauge("repro_store_wal_segments", "sealed (immutable) WAL segments awaiting "
          "compaction", sum(wal.sealed_segment_count for wal in wals))
    count("repro_store_checkpoints_total", "epoch checkpoints written (incl. "
          "background compaction)", store.checkpoints_written)
    hist("repro_store_checkpoint_seconds", _LAT, "wall time of one checkpoint (write "
         "+ WAL truncation)", [store.checkpoint_seconds])
    if store.compactor is not None:
        count("repro_store_compaction_failures_total",
              "background checkpoints that raised", store.compactor.failures)
    if recovery is not None:
        count("repro_store_recoveries_total",
              "crash-recovery passes (checkpoint load + WAL replay)", 1)
        seconds = Histogram(_LAT)
        seconds.observe(recovery.duration_seconds)
        hist("repro_store_recovery_seconds", _LAT,
             "wall time of one recovery pass, audit included", [seconds])
        count("repro_store_replayed_records_total",
              "WAL records applied during recovery", recovery.wal_records)

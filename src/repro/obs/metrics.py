"""Counters, gauges, and fixed-bucket histograms with a Prometheus dump.

A :class:`MetricsRegistry` holds metric *families* keyed by name; each
family holds one instance per label set.  The shapes mirror the
Prometheus exposition format so :meth:`MetricsRegistry.render_prometheus`
is a faithful text dump, while :meth:`MetricsRegistry.snapshot` gives a
plain JSON-safe dict for tests and logs.

Fixed buckets keep histograms allocation-free on the hot path: the three
bucket ladders below cover the quantities the DLA run actually produces
(frame sizes from a few hundred bytes to megabyte convoy bundles,
per-stage latencies from microseconds to seconds, and modexp batch sizes
from singleton equality checks to thousand-element rings).
"""

from __future__ import annotations

import bisect
import threading

from repro.errors import ConfigurationError
from repro.obs.export import escape_help_text, escape_label_value

# One process-wide lock guards every metric mutation and family lookup.
# Emission is cheap (an int add) and the scheduler's concurrent queries
# emit from many threads; a single coarse lock keeps increments exact
# without per-metric lock storage (Counter/Gauge/Histogram use __slots__).
_LOCK = threading.Lock()

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SIZE_BUCKETS_BYTES",
    "LATENCY_BUCKETS_SECONDS",
    "BATCH_BUCKETS",
]

SIZE_BUCKETS_BYTES = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)
LATENCY_BUCKETS_SECONDS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        with _LOCK:
            self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, in-flight work)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int | float) -> None:
        with _LOCK:
            self.value = value

    def inc(self, amount: int | float = 1) -> None:
        with _LOCK:
            self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        with _LOCK:
            self.value -= amount


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
    kinds is a bug and raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help_: str, buckets=None) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: dict | None = None) -> Counter:
        with _LOCK:
            family = self._family(name, "counter", help)
            key = _label_key(labels)
            metric = family.instances.get(key)
            if metric is None:
                metric = family.instances[key] = Counter()
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        with _LOCK:
            family = self._family(name, "gauge", help)
            key = _label_key(labels)
            metric = family.instances.get(key)
            if metric is None:
                metric = family.instances[key] = Gauge()
        return metric  # type: ignore[return-value]

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
        with _LOCK:
            family = self._family(
                name, "histogram", help, buckets or LATENCY_BUCKETS_SECONDS
            )
            key = _label_key(labels)
            metric = family.instances.get(key)
            if metric is None:
                metric = family.instances[key] = Histogram(family.buckets)
        return metric  # type: ignore[return-value]

    # -- export ------------------------------------------------------------

    def value(self, name: str, labels: dict | None = None):
        """Current value of one counter/gauge instance, or ``None``.

        A read-only probe that never creates families or instances —
        tests and report printers can ask for metrics that may not have
        been emitted.  Histograms have no single value; asking for one
        raises.
        """
        family = self._families.get(name)
        if family is None:
            return None
        if family.kind == "histogram":
            raise ConfigurationError(
                f"metric {name!r} is a histogram; read it via snapshot()"
            )
        metric = family.instances.get(_label_key(labels))
        return None if metric is None else metric.value

    def snapshot(self) -> dict:
        """Plain-dict dump: family -> {type, help, values-by-label-string}."""
        out: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            values: dict = {}
            for key in sorted(family.instances):
                metric = family.instances[key]
                label_str = ",".join(f"{k}={v}" for k, v in key)
                if isinstance(metric, Histogram):
                    values[label_str] = {
                        "buckets": list(metric.buckets),
                        "counts": list(metric.counts),
                        "sum": metric.sum,
                        "count": metric.count,
                    }
                else:
                    values[label_str] = metric.value
            out[name] = {"type": family.kind, "help": family.help, "values": values}
        return out

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


"""Read a :class:`~repro.obs.metrics.MetricsRegistry` in assertions.

The system only renders a registry (``render_prometheus``, the
``/metrics`` body); tests read its families directly.
"""

from repro.obs.metrics import Histogram, MetricsRegistry


def metric_value(registry: MetricsRegistry, name: str, labels: dict | None = None):
    """One counter or gauge instance's value, or ``None`` if never emitted."""
    family = registry._families.get(name)
    if family is None:
        return None
    key = tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))
    metric = family.instances.get(key)
    return None if metric is None else metric.value


def metric_values(registry: MetricsRegistry, name: str) -> dict:
    """``"k=v,..." -> value`` for every instance of one family (a histogram
    instance as ``{"count", "sum"}``); a family never emitted is absent."""
    out = {}
    for key, metric in registry._families[name].instances.items():
        label = ",".join(f"{k}={v}" for k, v in key)
        if isinstance(metric, Histogram):
            out[label] = {"count": metric.count, "sum": metric.sum}
        else:
            out[label] = metric.value
    return out


def family_names(registry: MetricsRegistry) -> set[str]:
    return set(registry._families)

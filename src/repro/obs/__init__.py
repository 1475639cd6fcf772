"""repro.obs — unified tracing, metrics, and cost attribution.

The paper's headline claim is quantitative (relaxed SMC is orders of
magnitude cheaper than circuit MPC), so the reproduction counts
everything — but totals alone cannot say *where* a query spent its time,
messages, bytes, or modexps.  This package adds the missing correlation
layer:

* :class:`~repro.obs.tracer.Tracer` — nested spans
  (``run → protocol → round → stage``) with monotonic timestamps,
  per-span attributes, and span events.  The
  :class:`~repro.obs.tracer.NoopTracer` (the default everywhere) makes
  tracing opt-in with near-zero disabled cost.
  One tracer serves the whole process: the coordinator's spans and every
  party's ``node.<kind>`` handler spans land in it, each handler span
  directly under the span the message was sent from (the ``(trace_id,
  span_id)`` context carried by ``Message.trace_id`` /
  ``Message.parent_span_id``), so a query's spans form one tree.
* :func:`~repro.obs.metrics.collect` — builds a fresh
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms) from the ledgers the service already keeps,
  on every ``/metrics`` request; nothing pushes into a registry.
* :mod:`~repro.obs.export` — JSON-lines span log, Prometheus-style text
  dump, and a human-readable span tree.
* :mod:`~repro.obs.report` — the ``python -m repro trace-report`` cost
  attribution table (time / messages / bytes / modexp per span, % of
  parent) and the ``--critical-path`` analysis.
* :class:`~repro.obs.confidentiality.ConfidentialityObservatory` — the
  paper's §5 metrics (``C_query``, ``C_DLA``) computed live per query
  and per tenant, with leakage-budget gauges.
* :class:`~repro.obs.server.ObsServer` — the stdlib HTTP telemetry
  endpoint (``/metrics``, ``/healthz``, ``/traces``, ``/leakage``),
  opt-in via ``REPRO_OBS_HTTP_PORT``.

Emitted traces are deterministic modulo timestamps: span ids are
sequential per tracer, so tests can assert the exact span structure of a
protocol run.
"""

from repro.obs.confidentiality import (
    ConfidentialityObservatory,
    QueryObservation,
)
from repro.obs.export import (
    escape_help_text,
    escape_label_value,
    export_jsonl,
    load_jsonl,
    loads_jsonl,
    render_tree,
    write_jsonl,
)
from repro.obs.metrics import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS_SECONDS,
    SIZE_BUCKETS_BYTES,
    MetricsRegistry,
    collect,
)
from repro.obs.report import (
    attribution_rows,
    critical_path,
    render_attribution,
    render_critical_path,
)
from repro.obs.server import ObsServer
from repro.obs.tracer import NOOP_TRACER, NoopTracer, Span, SpanEvent, Tracer

__all__ = [
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "Span",
    "SpanEvent",
    "ConfidentialityObservatory",
    "QueryObservation",
    "ObsServer",
    "MetricsRegistry",
    "collect",
    "SIZE_BUCKETS_BYTES",
    "LATENCY_BUCKETS_SECONDS",
    "BATCH_BUCKETS",
    "export_jsonl",
    "write_jsonl",
    "load_jsonl",
    "loads_jsonl",
    "render_tree",
    "escape_label_value",
    "escape_help_text",
    "attribution_rows",
    "render_attribution",
    "critical_path",
    "render_critical_path",
]

"""Precompute pool observability: metrics export and span attribution.

The P6 contract for the obs layer: a service built with a
MetricsRegistry exposes every pool's depth gauge, hit/miss counter pair
and refill-batch histogram through the standard Prometheus dump, and a
traced ``audited_query`` splits its modexp attribute offline/online.
"""

from repro import ApplicationNode, ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import paper_table1_rows

CRITERION = "C1 > 30 or Tid = 'T1100267'"


def _service(metrics=None, tracer=None):
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=64,
        rng=DeterministicRng(b"obs-precompute"),
        tracer=tracer,
        metrics=metrics,
    )
    writer = ApplicationNode.register("U1", service)
    for row in paper_table1_rows()[:6]:
        service.log_event(row, writer.ticket)
    return service


class TestPoolMetricsExport:
    def test_prometheus_dump_has_all_pool_families(self):
        metrics = MetricsRegistry()
        service = _service(metrics=metrics)
        service.warm_pools()
        service.query(CRITERION)
        service.check_integrity()
        text = metrics.render_prometheus()
        for family in (
            "repro_precompute_pool_depth",
            "repro_precompute_hits_total",
            "repro_precompute_misses_total",
            "repro_precompute_refill_batch_size",
        ):
            assert family in text, f"{family} missing from Prometheus dump"
        # Per-pool labels: one series per pool name.
        assert 'repro_precompute_pool_depth{pool="affine:64"}' in text
        # The accumulator's fixed-base table is not a pool: no witness series.
        assert 'pool="witness' not in text

    def test_registry_depth_matches_snapshot(self):
        metrics = MetricsRegistry()
        service = _service(metrics=metrics)
        service.warm_pools(include_witnesses=False)
        snap = metrics.snapshot()["repro_precompute_pool_depth"]["values"]
        for name, row in service.precompute.pool_snapshot().items():
            assert snap[f"pool={name}"] == row["depth"]

    def test_audit_span_splits_modexp_offline_online(self):
        tracer = Tracer()
        service = _service(tracer=tracer)
        service.warm_pools()
        service.audited_query(CRITERION)
        root = next(
            s for s in tracer.root_spans() if s.name == "audit.query"
        )
        attrs = root.attributes
        assert attrs["modexp_offline"] + attrs["modexp_online"] == attrs["modexp"]
        assert attrs["modexp_online"] >= 0

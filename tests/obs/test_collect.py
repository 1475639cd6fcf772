"""``/metrics`` renders the ledgers: :func:`repro.obs.metrics.collect`.

Nothing pushes into a registry any more; each scrape builds a fresh one
from the counts the service keeps for its own sake.  These tests pin the
three properties a scraper depends on: a default service's page is not
empty, every line is valid exposition format, and traffic is counted
exactly once — the page's totals are the sum of the calls' cost reports.
"""

from __future__ import annotations

import re
import urllib.request

import pytest

from repro import ApplicationNode, ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.errors import ConfigurationError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.net.faults import FaultPlan
from repro.obs import MetricsRegistry, collect
from repro.resilience import RetryPolicy
from repro.workloads import paper_table1_rows

CROSS = "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267'"
BURST = [
    CROSS,
    "protocl = 'TCP'",
    "C1 > 30 and Tid = 'T1100267'",
    "(C1 > 30 or protocl = 'UDP') and Tid = 'T1100267'",
]
#: One exposition sample line (the same pattern tools/endpoint_smoke.py uses).
SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?\d+(\.\d+)?([eE][+-]?\d+)?$'
)


def table1_service(**kwargs) -> ConfidentialAuditingService:
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(schema, paper_fragment_plan(schema), **kwargs)
    writer = ApplicationNode.register("U1", service)
    for row in paper_table1_rows():
        service.log_event(row, writer.ticket)
    return service


def family_total(registry: MetricsRegistry, name: str) -> int:
    return sum(registry.snapshot()[name]["values"].values())


def test_default_service_serves_a_full_page():
    service = table1_service()
    try:
        service.query(CROSS)
        service.gather([service.submit(CROSS)])
        server = service.start_obs_server(0)
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as resp:
            body = resp.read().decode()
    finally:
        service.close()
    families = {ln.split()[2] for ln in body.splitlines() if ln.startswith("# TYPE")}
    for family in (
        "repro_net_messages_total",
        "repro_net_message_size_bytes",
        "repro_crypto_ops_total",
        "repro_obs_c_query",
        "repro_obs_orphan_events_total",
        "repro_sched_submitted_total",
    ):
        assert family in families, family


def test_every_line_is_valid_exposition_after_faults_and_a_burst():
    faults = FaultPlan(drop_rate=0.2, duplicate_rate=0.1, rng=DeterministicRng(b"lossy"))
    service = table1_service(
        prime_bits=64,
        rng=DeterministicRng(b"collect"),
        resilience=RetryPolicy(),
        faults=faults,
    )
    try:
        service.query(CROSS)
        service.gather([service.submit(c) for c in BURST * 2])
        registry = collect(service)
    finally:
        service.close()
    assert registry.value("repro_resilience_retries_total") > 0
    lines = registry.render_prometheus().splitlines()
    bad = [ln for ln in lines if not ln.startswith("#") and not SAMPLE.match(ln)]
    assert lines and not bad, bad[:3]


@pytest.mark.parametrize("name", ["sched.submitted", "resilience.retries", "9lives", ""])
def test_registry_rejects_names_prometheus_rejects(name):
    with pytest.raises(ConfigurationError, match="invalid metric family name"):
        MetricsRegistry().counter(name)


def test_scheduled_traffic_is_counted_once():
    service = table1_service(prime_bits=64, rng=DeterministicRng(b"once"))
    try:
        handles = [service.submit(c) for c in BURST]
        service.gather(handles)
        registry = collect(service)
    finally:
        service.close()
    assert sum(h.cost.messages for h in handles) > 0
    assert family_total(registry, "repro_net_messages_total") == sum(
        h.cost.messages for h in handles
    )
    assert family_total(registry, "repro_net_bytes_total") == sum(
        h.cost.bytes for h in handles
    )


def test_sync_calls_fold_their_networks_even_when_they_raise():
    service = table1_service(prime_bits=64, rng=DeterministicRng(b"fold"))
    costs = []
    for call in (
        lambda: service.query(CROSS),
        lambda: service.aggregate("sum", "C1", CROSS),
        lambda: service.audited_query(CROSS),
    ):
        call()
        costs.append(service.last_query_cost)
    calls = (service.net_stats.messages, service.net_stats.bytes)
    assert calls == (sum(c.messages for c in costs), sum(c.bytes for c in costs))
    service.check_integrity()
    assert service.net_stats.messages > calls[0]

    def cut_after_first_delivery():
        net = fresh()
        step = net.step

        def step_or_cut():
            if net.stats.messages:
                raise RuntimeError("link cut")
            return step()

        net.step = step_or_cut
        return net

    fresh, service._fresh_net = service._fresh_net, cut_after_first_delivery
    before = service.net_stats.messages
    with pytest.raises(RuntimeError, match="link cut"):
        service.query(CROSS)
    assert service.net_stats.messages == before + 1
    registry = collect(service)
    assert family_total(registry, "repro_net_messages_total") == service.net_stats.messages


def test_durable_store_families_read_the_store(tmp_path):
    first = table1_service(prime_bits=64, rng=DeterministicRng(b"durable"), store_dir=tmp_path)
    writer = first.register_user("U2")
    rows = list(paper_table1_rows())
    first.register_standing_query("protocl = 'TCP'")
    first.append_stream(rows, writer, batch_size=2)
    first.store.checkpoint()
    registry = collect(first)
    first.close()
    assert registry.value("repro_ingest_records_total") == len(rows)
    assert registry.value("repro_standing_epochs_total") == (len(rows) + 1) // 2
    assert registry.value("repro_standing_queries") == 1
    # The initial empty checkpoint, then ours.
    assert registry.value("repro_store_checkpoints_total") == 2
    assert registry.value("repro_store_wal_records_total") == sum(
        wal.records_appended for wal in first.store.wals.values()
    )
    assert registry.value("repro_store_recoveries_total") is None

    second = ConfidentialAuditingService(
        first.schema, first.plan, prime_bits=64, store_dir=tmp_path
    )
    try:
        assert second.last_recovery.audit_ok
        registry = collect(second)
    finally:
        second.close()
    assert registry.value("repro_store_recoveries_total") == 1
    assert (
        registry.value("repro_store_replayed_records_total")
        == second.last_recovery.wal_records
    )
    recovery = registry.snapshot()["repro_store_recovery_seconds"]["values"][""]
    assert recovery["count"] == 1

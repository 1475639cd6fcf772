"""Acceptance tests for the tracing/metrics layer across the full stack.

The contract (tentpole acceptance): a traced ``audited_query`` produces a
span tree whose root aggregates match the run's :class:`CostReport`
exactly, contains one span event per leakage-ledger entry, round-trips
through the JSONL exporter and the ``trace-report`` CLI — and with the
no-op tracer the protocol byte/modexp counts are identical to an
untraced run.
"""

import subprocess
import sys

from repro import ApplicationNode, Auditor, ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.crypto.pohlig_hellman import shared_prime
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.net.simnet import SimNetwork
from repro.obs import (
    MetricsRegistry,
    Tracer,
    attribution_rows,
    export_jsonl,
    loads_jsonl,
    render_attribution,
)
from repro.smc.base import SmcContext
from repro.smc.intersection import secure_set_intersection
from repro.workloads import paper_table1_rows

CRITERION = "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267'"


def _traced_service(tracer=None, metrics=None) -> ConfidentialAuditingService:
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=64,
        rng=DeterministicRng(b"obs-accept"),
        tracer=tracer,
        metrics=metrics,
    )
    writer = ApplicationNode.register("U1", service)
    for row in paper_table1_rows():
        service.log_event(row, writer.ticket)
    return service


class TestAuditedQueryTrace:
    def test_root_aggregates_match_cost_report_exactly(self):
        tracer = Tracer()
        service = _traced_service(tracer=tracer)
        service.audited_query(CRITERION)
        cost = service.last_query_cost
        assert cost is not None

        roots = [s for s in tracer.root_spans() if s.name == "audit.query"]
        assert len(roots) == 1
        root = roots[0]
        assert root.attributes["messages"] == cost.messages
        assert root.attributes["bytes"] == cost.bytes
        assert root.attributes["modexp"] == cost.modexp
        assert root.attributes["dropped"] == cost.dropped
        assert root.attributes["criterion"] == CRITERION
        assert root.attributes["digest"]

        # Attribution agrees: explicit root costs == the table's root row.
        rows = attribution_rows(tracer.finished_spans())
        root_row = next(r for r in rows if r["name"] == "audit.query")
        assert root_row["messages"] == cost.messages
        assert root_row["bytes"] == cost.bytes
        assert root_row["modexp"] == cost.modexp

    def test_one_span_event_per_leakage_entry(self):
        tracer = Tracer()
        service = _traced_service(tracer=tracer)
        service.audited_query(CRITERION)

        ledger_entries = len(service.ctx.leakage.events)
        leakage_events = [
            event
            for span in tracer.finished_spans()
            for event in span.events
            if event.name == "leakage"
        ]
        assert ledger_entries > 0
        assert len(leakage_events) == ledger_entries
        root = next(s for s in tracer.root_spans() if s.name == "audit.query")
        assert root.attributes["leakage_events"] == ledger_entries
        # Event attributes mirror the ledger entries one-to-one.
        recorded = {
            (e.attributes["protocol"], e.attributes["category"], e.attributes["detail"])
            for e in leakage_events
        }
        expected = {(e.protocol, e.category, e.detail) for e in service.ctx.leakage.events}
        assert recorded == expected

    def test_trace_round_trips_through_jsonl_and_report(self):
        tracer = Tracer()
        service = _traced_service(tracer=tracer)
        service.audited_query(CRITERION)
        spans = tracer.finished_spans()

        restored = loads_jsonl(export_jsonl(spans))
        assert restored == spans
        table = render_attribution(restored)
        assert "audit.query" in table
        assert "query.execute" in table
        assert "smc.intersection" in table

    def test_span_tree_has_expected_layers(self):
        tracer = Tracer()
        service = _traced_service(tracer=tracer)
        service.audited_query(CRITERION)
        names = {s.name for s in tracer.finished_spans()}
        # run -> query -> plan/predicates -> protocols -> ring hops.
        assert {"audit.query", "query.execute", "query.plan",
                "query.predicate", "smc.intersection", "ssi.hop"} <= names
        # The hop spans record set sizes and the engine used.
        hop = next(s for s in tracer.finished_spans() if s.name == "ssi.hop")
        assert hop.attributes["set_size"] >= 1
        assert hop.attributes["engine"]

    def test_metrics_fed_by_traced_query(self):
        metrics = MetricsRegistry()
        service = _traced_service(tracer=Tracer(), metrics=metrics)
        service.audited_query(CRITERION)
        snap = metrics.snapshot()
        assert "repro_net_messages_total" in snap
        assert "repro_net_message_size_bytes" in snap
        assert "repro_crypto_ops_total" in snap
        assert "repro_crypto_modexp_batch_size" in snap
        text = metrics.render_prometheus()
        assert "repro_net_messages_total{" in text
        # Message totals in the registry match the cost report.
        total_msgs = sum(
            v for v in snap["repro_net_messages_total"]["values"].values()
        )
        assert total_msgs == service.last_query_cost.messages


class TestNoopIdentity:
    def test_traced_and_untraced_runs_have_identical_costs(self):
        def run(tracer):
            ctx = SmcContext(
                shared_prime(64), DeterministicRng(b"noop-id"), tracer=tracer
            )
            net = SimNetwork(tracer=ctx.tracer)
            result = secure_set_intersection(
                ctx,
                {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]},
                net=net,
            )
            return (
                result.any_value,
                net.stats.messages,
                net.stats.bytes,
                ctx.crypto_ops.snapshot(),
                len(ctx.leakage.events),
            )

        untraced = run(None)  # defaults to the no-op tracer
        traced = run(Tracer())
        assert untraced == traced

    def test_service_results_identical_with_and_without_tracer(self):
        plain = _traced_service()
        traced = _traced_service(tracer=Tracer())
        r1 = plain.query(CRITERION)
        r2 = traced.query(CRITERION)
        assert r1.glsns == r2.glsns
        assert r1.messages == r2.messages
        assert plain.last_query_cost.modexp == traced.last_query_cost.modexp
        # Tracing puts trace-context ids (``tid``/``psp``) on the wire, so
        # traced runs carry strictly more bytes — bounded overhead, and the
        # message/modexp counts never change.
        assert r2.bytes > r1.bytes
        assert (r2.bytes - r1.bytes) / r1.bytes < 0.5


class TestTraceReportCli:
    def test_demo_trace_and_report(self, tmp_path):
        trace_path = tmp_path / "demo-trace.jsonl"
        demo = subprocess.run(
            [sys.executable, "-m", "repro", "--prime-bits", "64",
             "--seed", "obs-cli", "--trace-out", str(trace_path)],
            capture_output=True, text=True, timeout=300,
        )
        assert demo.returncode == 0, demo.stderr
        assert "== trace ==" in demo.stdout
        assert trace_path.exists()

        report = subprocess.run(
            [sys.executable, "-m", "repro", "trace-report", str(trace_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert report.returncode == 0, report.stderr
        assert "audit.query" in report.stdout
        assert "modexp" in report.stdout.splitlines()[0]

        tree = subprocess.run(
            [sys.executable, "-m", "repro", "trace-report", "--tree",
             str(trace_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert tree.returncode == 0, tree.stderr
        assert "audit.query" in tree.stdout

    def test_trace_report_missing_file_fails(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace-report",
             str(tmp_path / "nope.jsonl")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0

"""Acceptance tests for the tracing/metrics layer across the full stack.

The contract (tentpole acceptance): a traced ``audited_query`` produces a
span tree whose root aggregates match the run's :class:`CostReport`
exactly, contains one span event per leakage-ledger entry, round-trips
through the JSONL exporter and the ``trace-report`` CLI — and a traced
run's message/modexp counts equal an untraced run's, its bytes differing
by exactly the trace context stamped on the wire.
"""

import json
import subprocess
import sys

from repro import ApplicationNode, Auditor, ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.crypto.pohlig_hellman import shared_prime
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.net.simnet import SimNetwork
from repro.obs import (
    Tracer,
    attribution_rows,
    collect,
    export_jsonl,
    load_jsonl,
    loads_jsonl,
    render_attribution,
)
from repro.smc.base import SmcContext
from repro.smc.intersection import secure_set_intersection
from repro.workloads import paper_table1_rows
from tests.metrics_probe import family_names, metric_values

CRITERION = "(C1 > 30 or protocl = 'TCP') and Tid = 'T1100267'"


def _traced_service(tracer=None) -> ConfidentialAuditingService:
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=64,
        rng=DeterministicRng(b"obs-accept"),
        tracer=tracer,
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

        roots = [
            s for s in tracer.finished_spans() if s.parent_id is None and s.name == "audit.query"
        ]
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
        root = next(
            s for s in tracer.finished_spans() if s.parent_id is None and s.name == "audit.query"
        )
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
        service = _traced_service(tracer=Tracer())
        service.audited_query(CRITERION)
        metrics = collect(service)
        families = family_names(metrics)
        assert "repro_net_messages_total" in families
        assert "repro_net_message_size_bytes" in families
        assert "repro_crypto_ops_total" in families
        assert "repro_crypto_modexp_batch_size" in families
        text = metrics.render_prometheus()
        assert "repro_net_messages_total{" in text
        # Message totals in the registry match the cost report.
        total_msgs = sum(metric_values(metrics, "repro_net_messages_total").values())
        assert total_msgs == service.last_query_cost.messages


class TestOneTracer:
    """Every party's spans land in the service's one tracer."""

    def test_query_and_integrity_node_spans_reach_the_tracer(self):
        tracer = Tracer()
        service = _traced_service(tracer=tracer)
        service.query(CRITERION)
        service.check_integrity()
        spans = tracer.finished_spans()
        by_id = {s.span_id: s for s in spans}
        ssi = [s for s in spans if s.name.startswith("node.ssi.")]
        integ = [s for s in spans if s.name.startswith("node.integ.")]
        assert ssi and integ
        # The sweep's bootstrap fold is the root of the sweep's trace.
        [sweep] = [s for s in integ if s.parent_id is None]
        assert sweep.name == "node.integ.start"
        for span in ssi + [s for s in integ if s is not sweep]:
            assert span.node is not None
            parent = by_id[span.parent_id]
            assert parent.trace_id == span.trace_id
        assert {s.trace_id for s in integ} == {sweep.trace_id}
        hops = [s for s in integ if s.name == "node.integ.mpass"]
        assert len(hops) == len(service.plan.node_ids) - 1
        assert all(s.attributes["modexp"] > 0 for s in hops)

    def test_handler_spans_chain_beside_the_coordinator_spans(self):
        tracer = Tracer()
        service = _traced_service(tracer=tracer)
        service.audited_query(CRITERION)
        spans = tracer.finished_spans()
        by_id = {s.span_id: s for s in spans}
        parent = {s.span_id: by_id[s.parent_id].name for s in spans if s.parent_id}
        hops = [s for s in spans if s.name == "ssi.hop"]
        bootstraps = [s for s in spans if s.name == "node.ssi.encrypt"]
        handlers = [s for s in spans if "messages" in s.attributes and s.node]
        assert hops and bootstraps and handlers
        # A coordinator span opened inside a handler stays under the
        # protocol span; party spans chain along the ring beneath it.
        assert {parent[s.span_id] for s in hops} == {"smc.intersection"}
        assert {parent[s.span_id] for s in bootstraps} == {"smc.intersection"}
        assert all(parent[s.span_id].startswith("node.ssi.") for s in handlers)
        # Every party's modexp is on its own spans: they sum to the query's.
        party_modexp = sum(s.attributes.get("modexp", 0) for s in spans if s.node)
        assert party_modexp == service.last_query_cost.modexp > 0

    def test_plain_query_is_a_recent_trace(self):
        tracer = Tracer()
        service = _traced_service(tracer=tracer)
        service.query(CRITERION)
        traces = service.recent_traces_snapshot()
        roots = [
            span["name"]
            for trace in traces
            for span in trace["spans"]
            if span["parent_id"] is None
        ]
        assert "query.execute" in roots
        service.audited_query(CRITERION)
        latest = service.recent_traces_snapshot()[-1]
        assert [s["name"] for s in latest["spans"] if s["parent_id"] is None] == [
            "audit.query"
        ]
        assert any(s.get("node") for s in latest["spans"])


class TestNoopIdentity:
    def test_traced_and_untraced_runs_have_identical_costs(self):
        def run(tracer):
            ctx = SmcContext(
                shared_prime(64), DeterministicRng(b"noop-id"), tracer=tracer
            )
            net = SimNetwork(tracer=ctx.tracer)
            net.keep_delivery_log = True
            result = secure_set_intersection(
                ctx,
                {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]},
                net=net,
            )
            # A traced transport stamps each envelope with its trace
            # context; those fields are the only bytes tracing may add.
            context = sum(
                len(f',"tid":{json.dumps(m.trace_id)},"psp":{m.parent_span_id}')
                for m in net._delivered_log
                if m.trace_id is not None
            )
            return (
                result.any_value,
                net.stats.messages,
                net.stats.bytes - context,
                ctx.crypto_ops.snapshot(),
                len(ctx.leakage.events),
            ), context

        untraced, no_context = run(None)  # defaults to the no-op tracer
        traced, context = run(Tracer())
        assert no_context == 0 and context > 0
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

    def test_demo_trace_has_the_integrity_sweep_node_spans(self, tmp_path):
        trace_path = tmp_path / "demo-trace.jsonl"
        demo = subprocess.run(
            [sys.executable, "-m", "repro", "--prime-bits", "64",
             "--seed", "obs-cli", "--trace-out", str(trace_path)],
            capture_output=True, text=True, timeout=300,
        )
        assert demo.returncode == 0, demo.stderr
        names = [s.name for s in load_jsonl(trace_path)]
        assert "node.integ.start" in names
        assert "node.integ.mpass" in names
        assert "node.integ.mdone" in names

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

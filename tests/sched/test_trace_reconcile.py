"""Property: concurrent queries' traces reconcile with their cost reports.

With the scheduler at concurrency >= 4, every query gets its own channel
and its own trace — yet all node spans land in ONE shared telemetry hub,
interleaved across query tasks ("helping" means one task's drain may
deliver another query's messages).  The tentpole invariant must survive that
interleaving: for EVERY assembled cross-node trace, the per-node span
attributions sum exactly to that query's private CostReport.
"""

from __future__ import annotations

from repro.obs import Tracer
from repro.obs.assemble import assemble_trace
from repro.sched import QueryScheduler
from tests.sched.conftest import build_service

CRITERIA = [
    "C1 > 30 and C3 = 'bank'",
    "C1 > 30 and C2 < 400",
    "C3 = 'bank' or C3 = 'salary'",
    "C1 > 50 and C3 = 'salary'",
    "C1 > 30 and C3 = 'bank'",
    "C2 < 200 and C3 = 'shop'",
]


class TestConcurrentTraceReconciliation:
    def test_every_trace_sums_to_its_cost_report(self):
        tracer = Tracer()
        service = build_service(rows=24, tracer=tracer)
        with QueryScheduler(service, max_inflight=4, coalesce=False) as sched:
            handles = [sched.submit(c) for c in CRITERIA]
            results = sched.gather(handles)
        assert all(r is not None for r in results)

        # Map each query to its trace: the sched.query root span carries
        # the channel tag, and everything propagated downstream from it —
        # coordinator children and per-node flight spans — shares its
        # trace id.
        roots = {
            s.attributes["channel"]: s
            for s in tracer.finished_spans()
            if s.name == "sched.query"
        }
        node_spans = service.telemetry.drain_all()
        coord_spans = tracer.finished_spans()
        assert service.telemetry.dropped_spans() == 0

        checked_network_traces = 0
        for handle in handles:
            root = roots[f"q{handle.seq}"]
            cost = handle.cost
            assert cost is not None
            mine = [s for s in node_spans if s.trace_id == root.trace_id]

            # Reconciliation: each delivered message is counted once, at
            # its receiver's dispatch span.
            assert sum(s.attributes.get("messages", 0) for s in mine) == cost.messages
            assert sum(s.attributes.get("bytes", 0) for s in mine) == cost.bytes
            assert sum(s.attributes.get("modexp", 0) for s in mine) == cost.modexp

            if cost.messages:
                checked_network_traces += 1
                # The cross-node spans assemble into the query's one tree:
                # no span dangles off a parent the hub did not record.
                assembled = assemble_trace(coord_spans + mine, root.trace_id)
                assert not any(
                    "unresolved_parent" in s.attributes for s in assembled
                )
                tree_roots = [s for s in assembled if s.parent_id is None]
                assert [r.name for r in tree_roots] == ["sched.query"]

        # The workload must actually have exercised the network (cross
        # predicates) or the property above is vacuous.
        assert checked_network_traces >= 2

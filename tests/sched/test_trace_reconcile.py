"""Property: scheduled queries' traces reconcile with their cost reports.

Every scheduled query gets its own network and its own trace, yet all
node spans land in the service's ONE tracer, the worker thread's beside
the caller's.  The invariant must survive that: for EVERY query's trace,
the per-node span attributions sum exactly to that query's private
CostReport.
"""

from __future__ import annotations

from repro.obs import Tracer
from repro.sched import QueryScheduler
from tests.sched.conftest import build_service, running

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
        service.coalesce = False
        with running(QueryScheduler(service)) as sched:
            handles = [sched.submit(c) for c in CRITERIA]
            results = sched.gather(handles)
        assert all(r is not None for r in results)

        # Map each query to its trace: the sched.query root span carries
        # the query tag, and everything propagated downstream from it —
        # coordinator children and every party's handler spans — shares
        # its trace id.
        spans = tracer.finished_spans()
        roots = {
            s.attributes["query"]: s for s in spans if s.name == "sched.query"
        }
        ids = {s.span_id for s in spans}

        checked_network_traces = 0
        for handle in handles:
            root = roots[f"q{handle.seq}"]
            cost = handle.cost
            assert cost is not None
            trace = [s for s in spans if s.trace_id == root.trace_id]
            mine = [s for s in trace if s.node is not None]

            # Reconciliation: each delivered message is counted once, at
            # its receiver's dispatch span.
            assert sum(s.attributes.get("messages", 0) for s in mine) == cost.messages
            assert sum(s.attributes.get("bytes", 0) for s in mine) == cost.bytes
            assert sum(s.attributes.get("modexp", 0) for s in mine) == cost.modexp

            if cost.messages:
                checked_network_traces += 1
                # The query's spans are one tree: no span dangles off a
                # parent the tracer did not record.
                assert all(s.parent_id in ids for s in trace if s.parent_id)
                tree_roots = [s for s in trace if s.parent_id is None]
                assert [r.name for r in tree_roots] == ["sched.query"]

        # The workload must actually have exercised the network (cross
        # predicates) or the property above is vacuous.
        assert checked_network_traces >= 2

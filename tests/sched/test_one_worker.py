"""What running each query in its submitter's thread adds to the contract.

``tests/sched/test_scheduler.py`` holds the behaviour suite of
:class:`~repro.sched.QueryScheduler`; the cases here are the ones that
exist because every query runs, start to finish, inside its ``submit``:
exact ledger and trace reconciliation, hundreds of submitted queries, one
query executing at a time in submission order, a deadline spent before
the query starts, and no scheduler thread at all.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import DeadlineExceededError
from repro.sched import QueryScheduler
from tests.sched.conftest import CRITERIA, build_service


class TestEquivalenceToSerial:
    def test_matches_serial_twin(self):
        serial, concurrent = build_service(), build_service()
        expected = [serial.query(c) for c in CRITERIA]
        sched = QueryScheduler(concurrent)
        handles = [sched.submit(c) for c in CRITERIA]
        results = sched.gather(handles)
        for got, want in zip(results, expected):
            assert got.glsns == want.glsns
            assert got.subquery_glsns == want.subquery_glsns
        serial.close()
        concurrent.close()

    def test_ledger_reconciliation_is_exact(self):
        service = build_service()
        leakage_before = service.ctx.leakage.count()
        service.coalesce = False
        sched = QueryScheduler(service)
        handles = [sched.submit(c) for c in CRITERIA]
        sched.gather(handles)
        # Every handle owns its private cost and leakage...
        assert all(h.cost is not None for h in handles)
        per_query_events = sum(len(h.leakage) for h in handles)
        # ...and the service-wide ledger grew by exactly their union.
        assert service.ctx.leakage.count() - leakage_before == per_query_events
        service.close()

    def test_coalesced_queries_fan_out_with_ledger_entry(self):
        service = build_service()
        sched = QueryScheduler(service)
        handles = [sched.submit(CRITERIA[0]) for _ in range(4)]
        results = sched.gather(handles)
        stats = sched.coalesce_stats()
        assert len({tuple(r.glsns) for r in results}) == 1
        coalesced = [h for h in handles if h.coalesced]
        assert coalesced, "identical queries of one burst must share one execution"
        for handle in coalesced:
            assert handle.cost.messages == 0
            assert [e.category for e in handle.leakage] == ["coalesced_result"]
        # Later twins either join the in-flight compute or hit its cached
        # value — both count as shared executions.
        q = stats["sched.query"]
        assert q["joins"] + q["hits"] >= len(coalesced)
        service.close()


class TestTraceReconciliation:
    def test_every_trace_sums_to_its_cost_report(self):
        from repro.obs import Tracer

        tracer = Tracer()
        service = build_service(rows=24, tracer=tracer)
        service.coalesce = False
        sched = QueryScheduler(service)
        handles = [sched.submit(c) for c in CRITERIA]
        results = sched.gather(handles)
        assert all(r is not None for r in results)

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
            assert sum(s.attributes.get("messages", 0) for s in mine) == cost.messages
            assert sum(s.attributes.get("bytes", 0) for s in mine) == cost.bytes
            assert sum(s.attributes.get("modexp", 0) for s in mine) == cost.modexp
            if cost.messages:
                checked_network_traces += 1
                assert all(s.parent_id in ids for s in trace if s.parent_id)
                tree_roots = [s for s in trace if s.parent_id is None]
                assert [r.name for r in tree_roots] == ["sched.query"]
        assert checked_network_traces >= 2
        service.close()


class TestInflightScale:
    def test_sustains_hundreds_in_flight(self):
        """300 queries submitted back to back, each a settled handle —
        all resolve, in submission order, to one consistent answer."""
        service = build_service(rows=12)
        service.coalesce = False
        sched = QueryScheduler(service)
        handles = [sched.submit("C3 = 'bank'") for _ in range(300)]
        assert len(handles) == 300
        results = sched.gather(handles)
        assert len({tuple(r.glsns) for r in results}) == 1
        assert [h.seq for h in handles] == list(range(1, 301))
        service.close()

    def test_one_query_executes_at_a_time(self, monkeypatch):
        """Every query runs alone, in submission order, in the thread that
        submitted it: each starts after its predecessor finished."""
        service = build_service(rows=12)
        seen = []
        real_execute = QueryScheduler._execute

        def execute(self, handle, qplan):
            seen.append(threading.current_thread())
            return real_execute(self, handle, qplan)

        monkeypatch.setattr(QueryScheduler, "_execute", execute)
        service.coalesce = False
        sched = QueryScheduler(service)
        handles = [sched.submit(c) for c in CRITERIA * 2]
        assert all(h.done for h in handles)
        sched.gather(handles)
        assert seen == [threading.current_thread()] * len(handles)
        for earlier, later in zip(handles, handles[1:]):
            assert earlier.finished_at <= later.started_at
        assert (sched.submitted, sched.completed, sched.failed) == (12, 12, 0)
        service.close()


class TestLifecycle:
    def test_deadline_expires_in_admission(self):
        service = build_service(rows=8)
        sched = QueryScheduler(service)
        handle = sched.submit("C1 > 30 and C3 = 'bank'", timeout=0.0)
        with pytest.raises(DeadlineExceededError):
            handle.result()
        assert handle.cost is None  # failed before any cluster work
        service.close()


class TestServiceRouting:
    def test_no_scheduler_thread_is_ever_started(self):
        """``submit``, ``query_many`` and ``gather`` run on the calling
        thread: neither they nor ``close()`` leave a ``repro-sched``
        thread behind, and the service keeps one scheduler throughout."""

        def sched_threads() -> list[str]:
            return [t.name for t in threading.enumerate() if t.name == "repro-sched"]

        service = build_service(rows=8)
        sched = service.scheduler
        assert type(sched) is QueryScheduler
        handle = service.submit("C3 = 'bank'")
        assert len(service.query_many(CRITERIA[:2])) == 2
        assert len(service.gather([handle, service.submit(CRITERIA[0])])) == 2
        assert sched_threads() == []
        assert handle.done and handle.result() is not None
        service.close()
        assert service.scheduler is sched
        assert sched_threads() == []

"""What running on an event loop adds to the scheduler's contract.

``tests/sched/test_scheduler.py`` holds the behaviour suite of
:class:`~repro.sched.QueryScheduler`; the cases here are the ones that
exist because every query is a task on one loop: exact ledger and trace
reconciliation when rounds interleave, hundreds of parked queries,
cancellation by ``shutdown(wait=False)``.
"""

from __future__ import annotations

import time

import pytest

from repro.aio import aio_scheduler_enabled
from repro.errors import DeadlineExceededError, SchedulerShutdownError
from repro.sched import QueryScheduler
from tests.sched.conftest import CRITERIA, build_service


class TestEquivalenceToSerial:
    def test_matches_serial_twin(self):
        serial, concurrent = build_service(), build_service()
        expected = [serial.query(c) for c in CRITERIA]
        with QueryScheduler(concurrent) as sched:
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
        with QueryScheduler(service, coalesce=False) as sched:
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
        with QueryScheduler(service) as sched:
            handles = [sched.submit(CRITERIA[0]) for _ in range(4)]
            results = sched.gather(handles)
            stats = sched.coalesce_stats()
        assert len({tuple(r.glsns) for r in results}) == 1
        coalesced = [h for h in handles if h.coalesced]
        assert coalesced, "identical concurrent queries must share one execution"
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
        with QueryScheduler(service, coalesce=False) as sched:
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
        """300 queries admitted at once, each a parked task —
        all resolve, in submission order, to one consistent answer."""
        service = build_service(rows=12)
        with QueryScheduler(service, coalesce=False) as sched:
            handles = [sched.submit("C3 = 'bank'") for _ in range(300)]
            assert len(handles) == 300  # admission never blocked
            results = sched.gather(handles)
        assert len({tuple(r.glsns) for r in results}) == 1
        assert [h.seq for h in handles] == list(range(1, 301))
        service.close()

    def test_max_inflight_bounds_concurrent_execution(self):
        service = build_service(rows=12)
        with QueryScheduler(service, max_inflight=2, coalesce=False) as sched:
            handles = [sched.submit("C3 = 'bank'") for _ in range(12)]
            sched.gather(handles)
        assert sched.in_flight == 0  # post-run: drained to 0
        assert (sched.submitted, sched.completed, sched.failed) == (12, 12, 0)
        service.close()


class TestLifecycle:
    def test_submit_after_shutdown_raises(self):
        service = build_service(rows=8)
        sched = QueryScheduler(service)
        sched.submit("C3 = 'bank'").result()
        sched.shutdown()
        with pytest.raises(SchedulerShutdownError):
            sched.submit("C3 = 'bank'")
        sched.shutdown()  # idempotent
        service.close()

    def test_shutdown_without_wait_settles_every_handle(self):
        """``shutdown(wait=False)`` cancels the queries still on the loop;
        each must fail with the typed error, never stay pending forever."""
        service = build_service(rows=12)
        sched = QueryScheduler(service, max_inflight=2, coalesce=False)
        handles = [sched.submit("C1 > 30 and C3 = 'bank'") for _ in range(40)]
        sched.shutdown(wait=False)
        deadline = time.monotonic() + 30.0
        while not all(h.done for h in handles) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [h.seq for h in handles if not h.done] == []
        failed = [h for h in handles if h.exception() is not None]
        assert failed, "a 40-query burst cannot finish before the loop stops"
        for handle in failed:
            with pytest.raises(SchedulerShutdownError):
                handle.result(timeout=0)
        service.close()

    def test_deadline_expires_in_admission(self):
        service = build_service(rows=8)
        with QueryScheduler(service) as sched:
            handle = sched.submit("C1 > 30 and C3 = 'bank'", timeout=0.0)
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=10.0)
        service.close()


class TestServiceRouting:
    def test_service_scheduler_is_async_by_default(self):
        """Nothing selects the scheduler: it is always the event loop."""
        assert aio_scheduler_enabled()
        service = build_service(rows=8)
        assert type(service.scheduler) is QueryScheduler
        assert service.scheduler.loop_thread.running is False  # lazy until a submit
        result = service.submit("C3 = 'bank'").result()
        assert result is not None
        assert service.scheduler.loop_thread.running
        service.close()

"""Standing epochs run on the ingesting thread, not through the scheduler.

An ingest evaluates its standing queries itself, in the service's one
per-query scope, so it never waits behind a query another thread
submitted, starts no ``repro-sched`` thread and keeps each run's spans in
the epoch's trace.  The whole-query memo belongs to the service, so it
outlives a scheduler.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.audit.executor import QueryExecutor
from repro.obs import Tracer
from repro.sched import QueryScheduler
from tests.sched.conftest import build_service

#: A cross predicate (``C4``@P0 = ``C``@P2): each run costs modexps.
CROSS = "C4 = C"
#: How long a held scheduled query waits for its gate at most.
GATE_SECONDS = 10.0


def append_rows(service, count: int, start: int = 100) -> None:
    ticket = service.register_user(f"writer-{start}")
    service.append_stream(
        [{"C4": i % 2, "C": i % 3, "C3": "bank", "C5": i} for i in range(start, start + count)],
        ticket,
        batch_size=4,
    )


def sched_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "repro-sched"]


def test_an_ingest_does_not_wait_behind_a_held_scheduled_query(monkeypatch):
    entered, gate = threading.Event(), threading.Event()
    real_scan = QueryExecutor._local_scan

    def held_scan(self, *args, **kwargs):
        if threading.current_thread().name == "submitter":
            entered.set()
            gate.wait(GATE_SECONDS)
        return real_scan(self, *args, **kwargs)

    monkeypatch.setattr(QueryExecutor, "_local_scan", held_scan)
    service = build_service(rows=12)
    handles = []
    submitter = threading.Thread(
        target=lambda: handles.append(service.submit("C2 < 500")), name="submitter"
    )
    try:
        service.register_standing_query("C3 = 'bank'")
        submitter.start()
        assert entered.wait(GATE_SECONDS)
        started = time.monotonic()
        service.append_stream([{"C3": "bank", "C5": 1}], service.register_user("w"))
        waited = time.monotonic() - started
        assert submitter.is_alive() and not handles  # still held in its scan
        gate.set()
        submitter.join(GATE_SECONDS)
        handles[0].result()
        assert waited < GATE_SECONDS / 5
    finally:
        gate.set()
        submitter.join(GATE_SECONDS)
        service.close()


def test_an_ingest_only_service_starts_no_scheduler_thread():
    before = set(sched_threads())
    service = build_service(rows=12)
    try:
        deltas = []
        service.register_standing_query(CROSS, on_delta=deltas.append)
        service.register_standing_query("C3 = 'bank'", on_delta=deltas.append)
        append_rows(service, 8)
        assert deltas
        assert set(sched_threads()) == before
        assert service.scheduler.submitted == 0
    finally:
        service.close()


def test_an_epochs_runs_share_its_trace():
    tracer = Tracer()
    service = build_service(rows=12, tracer=tracer)
    try:
        service.register_standing_query(CROSS)
        service.register_standing_query("C3 = 'bank'")
        append_rows(service, 8)
        spans = tracer.finished_spans()
        epochs = [s for s in spans if s.name == "standing.epoch"]
        runs = [s for s in spans if s.name == "query.execute"]
        assert len(epochs) == 2 and len(runs) == 2 * len(epochs)
        for epoch in epochs:
            assert [r.parent_id for r in runs if r.trace_id == epoch.trace_id] == [
                epoch.span_id, epoch.span_id,
            ]
    finally:
        service.close()


def test_the_whole_query_memo_outlives_the_scheduler():
    service = build_service(rows=12)
    try:
        first = service.submit(CROSS)
        service.gather([first])
        rebuilt = QueryScheduler(service)
        again = rebuilt.submit(CROSS)
        assert rebuilt.gather([again])[0].glsns == first.result().glsns
        assert again.coalesced and not first.coalesced
        stats = rebuilt.coalesce_stats()["sched.query"]
        assert (stats["hits"], stats["misses"]) == (1, 1)
    finally:
        service.close()


@pytest.mark.parametrize("coalesce", [True, False], ids=["coalesce", "no-coalesce"])
def test_equal_standing_plans_share_one_run_per_epoch(coalesce):
    """Two standing queries over one plan cost one run's modexps and record
    one ``coalesced_result`` per epoch; without coalescing, two runs and none."""

    def standing_cost(queries: int) -> tuple[int, int]:
        service = build_service(rows=12)
        service.coalesce = coalesce
        try:
            for _ in range(queries):
                service.register_standing_query(CROSS)
            modexps = service.ctx.crypto_ops.modexp
            append_rows(service, 8)
            return (
                service.ctx.crypto_ops.modexp - modexps,
                service.ctx.leakage.count("coalesced_result"),
            )
        finally:
            service.close()

    one_modexps, one_shared = standing_cost(1)
    two_modexps, two_shared = standing_cost(2)
    assert one_modexps > 0 and one_shared == 0
    if coalesce:
        assert (two_modexps, two_shared) == (one_modexps, 2)
    else:
        assert (two_modexps, two_shared) == (2 * one_modexps, 0)

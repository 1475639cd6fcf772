"""Whole-query coalescing: compute-once semantics and failure isolation.

The scheduler remembers each executed query's result under its plan
fingerprint and every node store's epoch (``sched.query``): get, compute,
put, one query at a time.  An equal query later in the queue is served
that result; a query that fails stores nothing, so it can never poison
the next equal query — that one computes afresh.
"""

from __future__ import annotations

import pytest

from repro.cache import set_caching_enabled
from repro.sched import QueryScheduler
from tests.sched.conftest import build_service

CRITERION = "C1 > 30 and C3 = 'bank'"


@pytest.fixture(autouse=True)
def _caching_on():
    set_caching_enabled(True)
    yield
    set_caching_enabled(None)


@pytest.fixture()
def service():
    svc = build_service(rows=12)
    yield svc
    svc.close()


def count_executions(monkeypatch, fail_first: bool = False) -> list[int]:
    """``[n]``: how many queries really executed (the first may be made to fail)."""
    calls = [0]
    real_execute = QueryScheduler._execute

    def execute(self, handle, qplan):
        calls[0] += 1
        if fail_first and calls[0] == 1:
            raise RuntimeError("holder dies")
        return real_execute(self, handle, qplan)

    monkeypatch.setattr(QueryScheduler, "_execute", execute)
    return calls


def test_serves_cached_value_without_recompute(service, monkeypatch):
    calls = count_executions(monkeypatch)
    first = service.submit(CRITERION)
    first.result()
    later = service.submit(CRITERION)
    assert later.result().glsns == first.result().glsns
    assert calls[0] == 1
    assert later.coalesced and later.cost.messages == 0


def test_concurrent_tasks_compute_once(service, monkeypatch):
    calls = count_executions(monkeypatch)
    handles = [service.submit(CRITERION) for _ in range(5)]
    results = service.gather(handles)
    assert len({tuple(r.glsns) for r in results}) == 1
    assert calls[0] == 1
    assert [h.coalesced for h in handles] == [False] + [True] * 4
    stats = service.scheduler.coalesce_stats()["sched.query"]
    assert (stats["misses"], stats["hits"]) == (1, 4)


def test_failed_holder_does_not_poison_joiners(service, monkeypatch):
    """The first query's exception stays its own; the next equal query
    computes afresh and the rest are served its result."""
    calls = count_executions(monkeypatch, fail_first=True)
    handles = [service.submit(CRITERION) for _ in range(3)]
    with pytest.raises(RuntimeError, match="holder dies"):
        handles[0].result()
    second, third = (h.result() for h in handles[1:])
    assert second.glsns == third.glsns == build_service(rows=12).query(CRITERION).glsns
    assert calls[0] == 2
    assert [h.coalesced for h in handles] == [False, False, True]
    assert service.query_memo.stats.entries == 1


def test_kill_switch_bypasses_sharing(service, monkeypatch):
    calls = count_executions(monkeypatch)
    set_caching_enabled(False)
    handles = [service.submit(CRITERION) for _ in range(3)]
    service.gather(handles)
    assert calls[0] == 3
    assert not any(h.coalesced for h in handles)
    stats = service.scheduler.coalesce_stats()["sched.query"]
    assert (stats["misses"], stats["hits"]) == (0, 0)


def test_a_coalesced_query_is_observed_with_its_one_disclosure(service):
    before = service.observatory.report()["queries"]
    first, second = service.submit("C3 = 'bank'"), service.submit("C3 = 'bank'")
    results = service.gather([first, second])
    assert second.coalesced and results[1].glsns == results[0].glsns
    assert service.observatory.report()["queries"] == before + 2
    recent = service.observatory.report()["recent"]
    assert recent[-1]["leakage_events"] == len(second.leakage) == 1
    assert recent[-1]["matches"] == len(results[1].glsns)

"""One concurrency model: every scheduler is one class on an event loop.

``service.scheduler`` and the dedicated scheduler of
``query_many(max_concurrency=N)`` build the same
:class:`~repro.sched.QueryScheduler`; nothing runs on a worker pool or a
per-connection reader thread, and closing a service or a TCP cluster
leaves no loop thread behind.
"""

from __future__ import annotations

import threading

from repro.aio import AsyncTcpCluster
from repro.net.message import Message
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.sched import QueryScheduler
from tests.sched.conftest import CRITERIA, build_service

#: Every thread this repo's schedulers and socket transports ever named.
LOOP_THREADS = ("repro-aio-sched", "aio-tcp-")
POOL_THREADS = ("sched-worker-", "tcp-read-", "tcp-accept-")


def thread_names(prefixes: tuple[str, ...], since: set[threading.Thread]) -> list[str]:
    """Names of the threads started after ``since`` was taken."""
    return [
        t.name
        for t in threading.enumerate()
        if t not in since and t.name.startswith(prefixes)
    ]


def record_schedulers(monkeypatch) -> list[QueryScheduler]:
    """Every scheduler constructed from now on, in order."""
    built: list[QueryScheduler] = []
    real_init = QueryScheduler.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(QueryScheduler, "__init__", init)
    return built


def high_water(monkeypatch, gauge: Gauge) -> list[int]:
    """``[max]`` of ``gauge`` over every ``inc`` from now on."""
    seen = [0]
    real_inc = Gauge.inc

    def inc(self, amount=1):
        real_inc(self, amount)
        if self is gauge:
            seen[0] = max(seen[0], self.value)

    monkeypatch.setattr(Gauge, "inc", inc)
    return seen


def test_every_construction_site_builds_the_same_class(monkeypatch):
    built = record_schedulers(monkeypatch)
    service = build_service(rows=12)
    try:
        persistent = service.scheduler
        service.query_many(CRITERIA[:2], max_concurrency=3)
        assert len(built) == 2 and built[0] is persistent
        assert {type(s) for s in built} == {QueryScheduler}
        assert built[1].max_inflight == 3
        # One module defines a scheduler; the benchmark's alias is that class.
        from repro.aio.scheduler import AsyncQueryScheduler

        assert AsyncQueryScheduler is QueryScheduler
        assert QueryScheduler.__module__ == "repro.sched.scheduler"
    finally:
        service.close()


def test_max_concurrency_bounds_in_flight_and_equals_serial(monkeypatch):
    registry = MetricsRegistry()
    serial, concurrent = build_service(), build_service(metrics=registry)
    try:
        burst = CRITERIA * 2
        seen = high_water(monkeypatch, registry.gauge("sched.in_flight"))
        got = concurrent.query_many(burst, max_concurrency=3)
        assert 1 <= seen[0] <= 3
        assert registry.value("sched.in_flight") == 0
        assert concurrent._scheduler is None  # the dedicated one is gone again
        for criterion, result in zip(burst, got):
            want = serial.query(criterion)
            assert result.glsns == want.glsns
            assert result.subquery_glsns == want.subquery_glsns
    finally:
        serial.close()
        concurrent.close()


def test_query_many_ledger_equals_the_persistent_schedulers():
    """A dedicated ``max_concurrency=N`` scheduler is the same machine with a
    smaller bound: same answers *and* the same ledger, entry for entry."""
    via_submit, via_many = build_service(), build_service()
    try:
        a = via_submit.gather([via_submit.submit(c) for c in CRITERIA])
        b = via_many.query_many(CRITERIA, max_concurrency=4)
        assert [r.glsns for r in a] == [r.glsns for r in b]
        assert via_submit.ctx.leakage.events == via_many.ctx.leakage.events
        assert via_submit.ctx.crypto_ops.ops == via_many.ctx.crypto_ops.ops
    finally:
        via_submit.close()
        via_many.close()


def test_no_pool_or_reader_threads_and_close_leaves_no_loop_thread():
    before = set(threading.enumerate())
    service = build_service(rows=12)
    cluster = AsyncTcpCluster(["A", "B"])
    try:
        service.gather([service.submit(c) for c in CRITERIA * 2])
        service.query_many(CRITERIA, max_concurrency=3)
        cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
        cluster["B"].send(cluster["B"].receive(timeout=5.0).reply("pong", 2))
        assert cluster["A"].receive(timeout=5.0).payload == 2
        assert thread_names(POOL_THREADS, before) == []
        # One loop for the persistent scheduler, one for the whole mesh.
        assert sorted(thread_names(LOOP_THREADS, before)) == [
            "aio-tcp-cluster",
            "repro-aio-sched",
        ]
    finally:
        service.close()
        cluster.close()
    assert thread_names(LOOP_THREADS + POOL_THREADS, before) == []

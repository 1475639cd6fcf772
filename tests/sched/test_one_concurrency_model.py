"""One concurrency model: one scheduler class, one worker, no query loop.

``service.scheduler`` is the one :class:`~repro.sched.QueryScheduler` a
service builds; ``query_many`` and standing queries go through it too.
Its queries run one at a time on its ``repro-sched`` worker thread —
never on an event loop, so the query path does not even import
:mod:`asyncio` — and nothing runs on a worker pool or a per-connection
reader thread.  Closing a service or a TCP cluster leaves no thread
behind.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import repro
from repro.aio import AsyncTcpCluster
from repro.net.message import Message
from repro.sched import QueryScheduler
from tests.sched.conftest import CRITERIA, build_service

#: Every thread this repo's schedulers and socket transports ever named.
WORKER_THREADS = ("repro-sched", "repro-aio-sched", "aio-tcp-")
POOL_THREADS = ("sched-worker-", "tcp-read-", "tcp-accept-")
REPO = Path(repro.__file__).resolve().parents[2]


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


def test_every_construction_site_builds_the_same_class(monkeypatch):
    built = record_schedulers(monkeypatch)
    service = build_service(rows=12)
    try:
        persistent = service.scheduler
        service.query_many(CRITERIA[:2])
        service.register_standing_query("C3 = 'bank'")
        service.poll_standing()
        assert built == [persistent]
        # One module defines a scheduler; the benchmark's alias is that class.
        from repro.aio.scheduler import AsyncQueryScheduler

        assert AsyncQueryScheduler is QueryScheduler
        assert QueryScheduler.__module__ == "repro.sched.scheduler"
    finally:
        service.close()


def test_query_many_ledger_equals_the_persistent_schedulers():
    """``query_many`` is ``submit`` + ``gather`` on the same scheduler:
    same answers *and* the same ledger, entry for entry."""
    via_submit, via_many = build_service(), build_service()
    try:
        a = via_submit.gather([via_submit.submit(c) for c in CRITERIA])
        b = via_many.query_many(CRITERIA)
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
        service.query_many(CRITERIA)
        cluster["A"].send(Message(src="A", dst="B", kind="k", payload=1))
        ping = cluster["B"].receive(timeout=5.0)
        cluster["B"].send(Message(src=ping.dst, dst=ping.src, kind="pong", payload=2))
        assert cluster["A"].receive(timeout=5.0).payload == 2
        assert thread_names(POOL_THREADS, before) == []
        # One worker for the scheduler, one loop for the whole mesh.
        assert sorted(thread_names(WORKER_THREADS, before)) == [
            "aio-tcp-cluster",
            "repro-sched",
        ]
    finally:
        service.close()
        cluster.close()
    assert thread_names(WORKER_THREADS + POOL_THREADS, before) == []


def test_the_query_path_never_imports_asyncio():
    """A burst, ``query_many`` and a standing-query epoch, in a fresh
    interpreter: :mod:`asyncio` is never imported, and ``close()`` leaves
    no ``repro-sched`` thread."""
    probe = textwrap.dedent(
        """
        import sys, threading
        from tests.sched.conftest import CRITERIA, build_service

        service = build_service(rows=12)
        service.gather([service.submit(c) for c in CRITERIA])
        service.query_many(CRITERIA[:2])
        service.register_standing_query("C3 = 'bank'")
        service.append_stream([{"C3": "bank", "C5": 1}], service.register_user("w"))
        print("asyncio" in sys.modules)
        service.close()
        print(sorted(t.name for t in threading.enumerate()))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, cwd=REPO
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["False", "['MainThread']"]

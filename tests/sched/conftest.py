"""Fixtures for the scheduler suite.

Services are built identically (same seed, same rows) so a serial run on
one deployment is the ground truth for a scheduled run on its twin.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema

ROWS = 40

#: A mixed workload: two distinct SMC-bearing queries that share the
#: expensive ``C1 > C5`` cross predicate, one pure-local query, repeats.
CRITERIA = [
    "C1 > 30 and C3 = 'bank'",
    "C1 > 30 and C2 < 400",
    "C1 > 30 and C3 = 'bank'",
    "C3 = 'bank' or C3 = 'salary'",
    "C1 > 30 and C3 = 'bank'",
    "C1 > 30 and C2 < 400",
]


def build_service(rows: int = ROWS, **kwargs) -> ConfidentialAuditingService:
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=64,
        rng=DeterministicRng(b"sched-tests"),
        **kwargs,
    )
    ticket = service.register_user("sched-tests")
    for i in range(rows):
        service.log_event(
            {
                "Time": f"2004-01-{i % 28 + 1:02d}",
                "id": f"u{i % 5}",
                "EID": i,
                "Tid": f"t{i}",
                "protocl": "tcp",
                "ip": f"10.0.0.{i % 7}",
                "C": i % 3,
                "C1": (i * 13) % 100,
                "C2": (i * 29) % 1000,
                "C3": ["bank", "salary", "shop"][i % 3],
                "C4": i % 2,
                "C5": i,
            },
            ticket,
        )
    return service


@pytest.fixture()
def twin_services():
    """Two identically-seeded, identically-loaded deployments."""
    return build_service(), build_service()


@pytest.fixture()
def service():
    svc = build_service()
    yield svc
    svc.shutdown_scheduler()


@contextmanager
def running(scheduler):
    """``scheduler`` for the block, shut down (its queue drained) after it."""
    try:
        yield scheduler
    finally:
        scheduler.shutdown()

"""Scheduler under faults: one query's dead node never poisons neighbors.

Reuses the chaos-matrix recipe (resilient net + FaultPlan crash) at the
service level: every in-flight query runs over a network of its own, so a
crashed node can only show up in the diagnosis of the queries that talk
to it.  With a :class:`RetryPolicy` the victim-touching query either fails
over (degraded answer, skipped node) or raises a typed
:class:`ReproError` — it never hangs and it never contaminates a
neighboring query.
"""

from __future__ import annotations

import pytest

from repro.crypto import DeterministicRng
from repro.errors import ReproError
from repro.net.faults import FaultPlan
from repro.resilience import RetryPolicy
from tests.sched.conftest import build_service

# Touches P0 (C4) and P1 (EID): the only query that needs the victim.
VICTIM_QUERY = "C4 = 1 and EID < 10"
# Touch P3/P2, P3/P1 and P2-only: healthy anchor pairs.
NEIGHBOR_QUERIES = [
    "C1 > 30 and C3 = 'bank'",
    "C1 > 30 and C2 < 400",
    "C3 = 'bank' or C3 = 'salary'",
]
VICTIM = "P0"


def _settle(handle):
    """Resolve a handle: (result, exception) — typed errors only."""
    try:
        return handle.result(), None
    except ReproError as exc:
        return None, exc


@pytest.fixture()
def chaos_service():
    faults = FaultPlan(rng=DeterministicRng(b"sched-chaos"))
    faults.crash(VICTIM)
    service = build_service(resilience=RetryPolicy(), faults=faults)
    yield service
    service.close()


def test_dead_node_failover_does_not_poison_neighbors(chaos_service):
    baseline = build_service()  # fault-free twin for ground truth
    expected = [baseline.query(c) for c in NEIGHBOR_QUERIES]

    doomed = chaos_service.submit(VICTIM_QUERY)
    neighbors = [chaos_service.submit(c) for c in NEIGHBOR_QUERIES]

    # The victim-touching query settles — failover (degraded answer) or
    # a typed failure — never a hang (drain max_steps/deadline guard).
    result, error = _settle(doomed)
    assert doomed.done
    if error is None:
        # Failover path: the ring skipped the dead anchor, so the answer
        # is degraded relative to the fault-free run.
        sick = baseline.query(VICTIM_QUERY)
        assert result.glsns != sick.glsns or doomed.cost.messages > 0

    # Every neighbor completes with the exact fault-free answer.
    for handle, want in zip(neighbors, expected):
        got = handle.result()
        assert handle.exception() is None
        assert got.glsns == want.glsns
        assert got.subquery_glsns == want.subquery_glsns

    # The victim query's network diagnosed the crash, and the diagnosis
    # names only the victim — never a healthy anchor.
    events = chaos_service.resilience_stats
    assert events["failovers"] >= 1 or events["delivery_failed"] >= 1
    health = chaos_service.health_snapshot()["nodes"]
    assert {node for node, h in health.items() if h["status"] != "ok"} == {VICTIM}
    failed = [link for h in health.values() for link in h["failed_links"]]
    assert failed and all(VICTIM in link for link in failed)


def test_scheduler_stays_usable_after_a_victim_query(chaos_service):
    doomed = chaos_service.submit(VICTIM_QUERY)
    _settle(doomed)
    # Same scheduler, new query on healthy anchors: full exact answer.
    later = chaos_service.submit(NEIGHBOR_QUERIES[0])
    want = build_service().query(NEIGHBOR_QUERIES[0])
    assert later.result().glsns == want.glsns


def test_victim_query_cost_still_attributed(chaos_service):
    doomed = chaos_service.submit(VICTIM_QUERY)
    _settle(doomed)
    # The attempt spent traffic (retransmissions towards the dead node)
    # and that spend is attributed to this query's handle.
    assert doomed.cost is not None
    assert doomed.cost.messages > 0


def _chaos_twin():
    """A second deployment with the same crash and the same fault dice."""
    faults = FaultPlan(rng=DeterministicRng(b"sched-chaos"))
    faults.crash(VICTIM)
    return build_service(resilience=RetryPolicy(), faults=faults)


def _degraded(service) -> set[str]:
    snapshot = service.health_snapshot()
    down = {node for node, h in snapshot["nodes"].items() if h["status"] != "ok"}
    assert (snapshot["status"] == "degraded") == bool(down)
    return down


class TestHealthAndReliabilityLedger:
    """What a query's own network saw reaches ``/healthz`` and
    ``service.resilience_stats`` when the query ends — sync or scheduled,
    after failover launches reset the per-launch diagnosis."""

    def test_victim_is_degraded_after_a_sync_query(self, chaos_service):
        chaos_service.query(VICTIM_QUERY)
        assert chaos_service.resilience_stats["failovers"] >= 1
        assert _degraded(chaos_service) == {VICTIM}

    def test_victim_is_degraded_after_a_scheduled_query(self, chaos_service):
        chaos_service.gather([chaos_service.submit(VICTIM_QUERY)])
        assert _degraded(chaos_service) == {VICTIM}

    def test_fault_free_service_stays_ok(self):
        service = build_service(resilience=RetryPolicy())
        service.query(VICTIM_QUERY)
        service.gather([service.submit(c) for c in [VICTIM_QUERY, *NEIGHBOR_QUERIES]])
        assert _degraded(service) == set()
        service.close()

    def test_scheduled_events_fold_when_the_query_ends(self, chaos_service):
        handle = chaos_service.submit(VICTIM_QUERY)
        chaos_service.gather([handle])
        sync = _chaos_twin()
        sync.query(VICTIM_QUERY)
        # The handle is settled, so the scheduled query's ledger is in.
        assert handle.done
        assert chaos_service.resilience_stats == sync.resilience_stats
        assert chaos_service.resilience_stats["failovers"] == 2
        assert handle.cost.messages == sync.last_query_cost.messages

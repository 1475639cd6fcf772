"""Every query the service answers runs in its own scope.

A query's context (RNG stream, crypto counter, leakage ledger), executor
and network are its own, and its ledgers merge into the service's as one
group when it ends.  Each case here is what a shared context got wrong:
a cost read off a counter another query writes to, rule checks and
mining on a network nothing accounts for, key streams repeated from one
query to the next, and a failed query's disclosures split around
another query's.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.audit import executor as executor_module
from repro.core import Auditor
from repro.core.rules import FairnessRule
from repro.crypto import DeterministicRng
from repro.errors import DeadlineExceededError
from repro.net.faults import FaultPlan
from repro.resilience import RetryPolicy
from repro.smc import intersection
from tests.sched.conftest import build_service

LOCAL = "C3 = 'bank' or C3 = 'salary'"
CROSS = "C1 > C5 and C3 = 'bank'"


@pytest.fixture()
def service():
    svc = build_service()
    yield svc
    svc.close()


def on_the_caller(original, hook):
    """``original`` with ``hook(self)`` run first on the calling thread only
    (a scheduled query runs the same code on the worker thread)."""
    caller = threading.current_thread()

    def wrapped(self, *args, **kwargs):
        if threading.current_thread() is caller:
            hook(self)
        return original(self, *args, **kwargs)

    return wrapped


def test_a_local_query_pays_none_of_a_concurrent_querys_modexps(service, monkeypatch):
    """A scheduled cross query completes inside a sync local query's run:
    the local query's cost is still its own, zero modexps."""
    handles = []

    def finish_a_scheduled_query(_executor):
        if not handles:
            handles.append(service.submit("C4 = C"))
            handles[0].result(timeout=60)

    executor = executor_module.QueryExecutor
    monkeypatch.setattr(
        executor,
        "_local_scan",
        on_the_caller(executor._local_scan, finish_a_scheduled_query),
    )
    service.query(LOCAL)
    (handle,) = handles
    assert handle.cost.modexp > 0
    assert service.last_query_cost.modexp == 0


def test_a_rule_check_is_an_accounted_service_query():
    """A rule's queries run on the service's networks: under its fault plan
    and retry policy, folded into ``net_stats`` and seen by the observatory,
    one observation per query the rule asks."""
    plain = build_service()
    faulty = build_service(
        resilience=RetryPolicy(),
        faults=FaultPlan(drop_rate=0.2, rng=DeterministicRng(b"rule-drops")),
    )
    rule = FairnessRule("C1 > C5", "C4 = C", tolerance=100)
    try:
        want = Auditor("a", plain).check_rule(rule)
        got = Auditor("a", faulty).check_rule(rule)
        assert got == want
        assert faulty.net_stats.messages > 0
        assert faulty.resilience_stats["retries"] > 0
        assert faulty.observatory.report()["queries"] == 2
        assert faulty.observatory.c_dla() is not None
    finally:
        plain.close()
        faulty.close()


def test_mining_traffic_reaches_the_service_ledgers(service):
    before = service.net_stats.messages
    service.mine_associations("C3", "C1", min_support=1)
    assert service.net_stats.messages > before
    assert "group_sizes" in service.ctx.leakage.categories()


def test_each_sync_query_draws_its_own_keys(service, monkeypatch):
    """In a seeded service two sync queries do not share a party's ``∩ₛ``
    key: each query's RNG stream is spawned under a label of its own."""
    keys = []
    original = intersection.IntersectionParty.__init__

    def keep_key(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.party_id == "P1":
            keys.append(self.cipher.key.e)

    monkeypatch.setattr(intersection.IntersectionParty, "__init__", keep_key)
    service.query("C4 = C and C2 < 500")
    service.query("C4 = C and C2 < 300")
    assert len(keys) == 2 and keys[0] != keys[1]


def test_two_signed_reports_do_not_give_away_the_cluster_key(service):
    """Each audited query signs with nonces from its own stream: with one
    nonce for two digests, ``(s1 - s2) / (c1 - c2)`` would be the key."""
    first = service.audited_query("C3 = 'bank'")
    second = service.audited_query("C3 = 'salary'")
    assert first.digest != second.digest
    group = service.threshold_scheme.group
    a, b = first.signature, second.signature
    slope = (a.s - b.s) * pow(a.c - b.c, -1, group.q) % group.q
    for candidate in (slope, -slope % group.q):
        assert pow(group.g, candidate, group.p) != service.cluster_public_key


def test_a_query_failing_mid_ring_merges_its_events_as_one_group(service, monkeypatch):
    """The deadline runs out between two relay hops of a sync query's
    ``∩ₛ`` ring, after a scheduled query finished in between: the failed
    query's disclosures land on the service ledger together, not split
    around the other query's, and its predicate is not memoized."""
    timeout = 2.0
    started = time.monotonic()
    relays, handles = [], []

    def finish_a_scheduled_query_then_run_out(_party):
        relays.append(1)
        if len(relays) == 2:
            handles.append(service.submit(CROSS))
            handles[0].result(timeout=60)
            time.sleep(max(0.0, started + timeout - time.monotonic()) + 0.05)

    monkeypatch.setattr(
        intersection.IntersectionParty,
        "_on_relay",
        on_the_caller(
            intersection.IntersectionParty._on_relay,
            finish_a_scheduled_query_then_run_out,
        ),
    )
    with pytest.raises(DeadlineExceededError):
        service.query("C4 = C", timeout=timeout)
    (handle,) = handles
    ledger = service.ctx.leakage.events
    theirs = handle.leakage
    assert theirs and len(ledger) > len(theirs)
    assert ledger[: len(theirs)] == theirs or ledger[-len(theirs):] == theirs
    assert all(key[0] != "C4 = C" for key in service.subplan_memo._entries)


def test_queries_on_many_threads_lose_no_ledger_entry():
    """Sync queries on more threads than cores, switching often: every
    query's ops, events and frames reach the service ledgers, as many as
    the same queries asked one after another."""
    import sys

    criteria = ["C4 = C", "C1 > C5 and C3 = 'bank'", LOCAL] * 2
    serial, threaded = build_service(), build_service()
    for service in (serial, threaded):
        service.coalesce = False
    switch = sys.getswitchinterval()
    try:
        for criterion in criteria * 4:
            serial.query(criterion)
        sys.setswitchinterval(1e-6)
        workers = [
            threading.Thread(target=lambda: [threaded.query(c) for c in criteria])
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(switch)
        serial.close()
        threaded.close()
    assert threaded.ctx.crypto_ops.snapshot() == serial.ctx.crypto_ops.snapshot()
    assert threaded.net_stats.messages == serial.net_stats.messages
    assert threaded.observatory.report()["queries"] == len(criteria) * 4
    ledger = threaded.ctx.leakage.events
    assert sorted(map(repr, ledger)) == sorted(map(repr, serial.ctx.leakage.events))

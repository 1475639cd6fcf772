"""The service's one sub-plan memo: reuse exactly at equal epochs, on the ledger.

A cross predicate's glsn set is a pure function of the fragments its two
owner nodes hold, so the service remembers it under the predicate and
those nodes' store epochs, and every query it runs — sync or scheduled —
reuses it.  :class:`SubplanMemoMachine` drives random writes, deletes,
tampers, evictions and sync queries against a plaintext oracle and holds
the memo to its contract: every answer is the oracle's, and a query is
served the memo *iff* neither owner's epoch moved since the entry was
stored.  The other tests pin the sync/scheduler sharing, the cost and
ledger of reuse against the memo-off service, and the ``/metrics`` view.
"""

from __future__ import annotations

import operator
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.audit import executor as executor_module
from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng, Operation
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.obs.metrics import collect

SCHEMA = paper_table1_schema()
PLAN = paper_fragment_plan(SCHEMA)
NODES = tuple(PLAN.node_ids)
OPS = {">": operator.gt, "<": operator.lt, "=": operator.eq, "!=": operator.ne}
#: Cross predicates of the paper's plan: C1@P3 / C5@P1 and C4@P0 / C@P2.
CROSS = ("C1 > C5", "C1 < C5", "C4 = C", "C4 != C")
#: Attributes a row may carry (small values, so equalities happen).
ATTRIBUTES = ("C1", "C5", "C4", "C", "C2")


def build(
    tag: bytes = b"subplan-memo", **kwargs
) -> tuple[ConfidentialAuditingService, object]:
    service = ConfidentialAuditingService(
        SCHEMA, PLAN, prime_bits=64, rng=DeterministicRng(tag), **kwargs
    )
    ticket = service.register_user(
        "auditee", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    return service, ticket


def parties(predicate: str) -> tuple[str, ...]:
    left, _, right = predicate.split()
    return PLAN.home_of(left), PLAN.home_of(right)


def reuses(service) -> int:
    return service.ctx.leakage.count("coalesced_result")


def populate(service, ticket, n: int = 30) -> None:
    for i in range(n):
        service.log_event(
            {"C1": (i * 37) % 50, "C5": (i * 11) % 50, "C4": i % 3, "C": (i // 2) % 3,
             "C2": i * 10, "C3": ("bank", "shop", "tax")[i % 3]},
            ticket,
        )


rows = st.lists(
    st.dictionaries(st.sampled_from(ATTRIBUTES), st.integers(0, 4)),
    min_size=1,
    max_size=4,
)


class SubplanMemoMachine(RuleBasedStateMachine):
    """Writes, deletes, tampers, evictions and sync queries; every answer
    equals the plaintext oracle, and the memo serves a cross predicate iff
    neither owner's epoch moved since the entry was stored."""

    def __init__(self) -> None:
        super().__init__()
        self.service, self.ticket = build()
        #: node -> glsn -> the values that node holds (the plaintext oracle)
        self.held: dict[str, dict[int, dict]] = {node: {} for node in NODES}
        #: predicate -> its owners' epochs when its memo entry was stored
        self.stored: dict[str, tuple[int, ...]] = {}
        #: every (predicate, epochs) whose rounds ran
        self.computed: set[tuple[str, tuple[int, ...]]] = set()

    def teardown(self) -> None:
        self.service.close()

    def _epochs(self, predicate: str) -> tuple[int, ...]:
        store = self.service.store
        return tuple(store.node_store(node).epoch for node in parties(predicate))

    def _mirror(self, glsn: int) -> None:
        for node in NODES:
            fragment = self.service.store.node_store(node).local_fragment(glsn)
            self.held[node][glsn] = dict(fragment.values)

    def _oracle(self, predicate: str) -> list[int]:
        left, op, right = predicate.split()
        lhs, rhs = (self.held[PLAN.home_of(a)] for a in (left, right))
        return sorted(
            glsn
            for glsn, values in lhs.items()
            if left in values
            and right in rhs.get(glsn, {})
            and OPS[op](values[left], rhs[glsn][right])
        )

    @initialize(batch=rows)
    def seed(self, batch) -> None:
        for receipt in self.service.store.append_batch(batch, self.ticket):
            self._mirror(receipt.glsn)

    @rule(values=st.dictionaries(st.sampled_from(ATTRIBUTES), st.integers(0, 4)))
    def log_event(self, values) -> None:
        self._mirror(self.service.log_event(values, self.ticket).glsn)

    @rule(data=st.data())
    def delete(self, data) -> None:
        glsns = self.service.store.glsns
        if glsns:
            glsn = data.draw(st.sampled_from(glsns))
            self.service.store.delete_record(glsn, self.ticket)
            for node in NODES:
                self.held[node].pop(glsn, None)

    @rule(data=st.data(), value=st.integers(0, 4))
    def tamper(self, data, value: int) -> None:
        node = data.draw(st.sampled_from(NODES))
        if self.held[node]:
            glsn = data.draw(st.sampled_from(sorted(self.held[node])))
            attribute = data.draw(
                st.sampled_from([a for a in ATTRIBUTES if PLAN.home_of(a) == node])
            )
            self.service.store.node_store(node).tamper(glsn, attribute, value)
            self.held[node][glsn][attribute] = value

    @rule(data=st.data())
    def evict(self, data) -> None:
        node = data.draw(st.sampled_from(NODES))
        if self.held[node]:
            glsn = data.draw(st.sampled_from(sorted(self.held[node])))
            self.service.store.node_store(node).evict(glsn)
            del self.held[node][glsn]

    @rule(predicate=st.sampled_from(CROSS), audited=st.booleans())
    def query(self, predicate: str, audited: bool) -> None:
        epochs = self._epochs(predicate)
        expect_hit = self.stored.get(predicate) == epochs
        before = reuses(self.service)
        if audited:
            glsns = list(self.service.audited_query(predicate).glsns)
        else:
            glsns = self.service.query(predicate).glsns
        assert glsns == self._oracle(predicate)
        assert reuses(self.service) - before == int(expect_hit)
        if expect_hit:
            assert self.service.last_query_cost.messages == 0
        else:
            self.computed.add((predicate, epochs))
        self.stored[predicate] = epochs

    @invariant()
    def one_entry_per_computed_predicate_and_epochs(self) -> None:
        assert len(self.service.subplan_memo) == len(self.computed)


SubplanMemoMachine.TestCase.settings = settings(
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSubplanMemoAgainstTheOracle = SubplanMemoMachine.TestCase


@pytest.fixture()
def service():
    service, ticket = build()
    populate(service, ticket)
    yield service
    service.close()


class TestInvalidation:
    def test_a_write_outside_the_predicate_still_hits(self, service):
        first = service.query("C1 > C5 and C3 = 'bank'").glsns
        cold = service.last_query_cost
        # C4 lives on P0, which is no party of C1 > C5 (P3, P1).
        glsn = service.store.glsns[0]
        service.store.node_store("P0").tamper(glsn, "C4", 2)
        again = service.query("C1 > C5 and C3 = 'bank'").glsns
        assert again == first
        assert reuses(service) == 1
        assert service.last_query_cost.messages < cold.messages
        # C5 lives on P1, a party: its epoch moved, so the rounds run again.
        service.store.node_store("P1").tamper(glsn, "C5", 0)
        service.query("C1 > C5 and C3 = 'bank'")
        assert reuses(service) == 1
        assert service.last_query_cost.messages == cold.messages

    def test_the_kill_switch_turns_the_memo_off(self, service):
        from repro.cache import set_caching_enabled

        set_caching_enabled(False)
        try:
            service.query("C4 = C")
            service.query("C4 = C")
        finally:
            set_caching_enabled(None)
        assert reuses(service) == 0
        assert len(service.subplan_memo) == 0

    def test_a_degraded_result_is_never_stored(self):
        from repro.net.faults import FaultPlan
        from repro.resilience import RetryPolicy

        faults = FaultPlan()
        service, ticket = build(faults=faults, resilience=RetryPolicy())
        for i in range(12):
            service.log_event({"C4": i % 2, "C": (i // 2) % 2}, ticket)
        try:
            healthy = service.query("C4 = C").glsns
            service.subplan_memo.clear()
            faults.crash("P0")  # the ring completes without C4's owner
            degraded = service.query("C4 = C").glsns
            assert service.ctx.leakage.count("degraded_result") >= 1
            assert degraded != healthy
            assert len(service.subplan_memo) == 0
            faults.recover("P0")
            assert service.query("C4 = C").glsns == healthy
            assert reuses(service) == 0
        finally:
            service.close()

    def test_a_degraded_burst_result_is_never_stored(self):
        from repro.net.faults import FaultPlan
        from repro.resilience import RetryPolicy

        faults = FaultPlan()
        service, ticket = build(faults=faults, resilience=RetryPolicy())
        for i in range(12):
            service.log_event({"C4": i % 2, "C": (i // 2) % 2}, ticket)
        try:
            healthy = service.query("C4 = C").glsns
            service.subplan_memo.clear()
            faults.crash("P0")
            (degraded,) = service.gather([service.submit("C4 = C")])
            assert degraded.glsns != healthy
            assert len(service.subplan_memo) == 0
            faults.recover("P0")
            assert service.query("C4 = C").glsns == healthy
            assert reuses(service) == 0
        finally:
            service.close()

    def test_a_degraded_burst_result_is_not_kept_whole_either(self):
        """The whole-query memo (``sched.query``) follows the same rule: an
        equal query at equal epochs after the node is back is not served
        the degraded answer."""
        from repro.net.faults import FaultPlan
        from repro.resilience import RetryPolicy

        faults = FaultPlan()
        service, ticket = build(faults=faults, resilience=RetryPolicy())
        for i in range(12):
            service.log_event({"C4": i % 2, "C": (i // 2) % 2}, ticket)
        try:
            healthy = service.query("C4 = C").glsns
            service.subplan_memo.clear()
            faults.crash("P0")
            (degraded,) = service.gather([service.submit("C4 = C")])
            assert degraded.glsns != healthy
            assert len(service.scheduler._query_cache) == 0
            faults.recover("P0")
            handle = service.submit("C4 = C")
            assert handle.result(timeout=60).glsns == healthy
            assert not handle.coalesced
        finally:
            service.close()

    def test_another_querys_degraded_entry_does_not_void_a_healthy_run(
        self, service, monkeypatch
    ):
        """The sync path shares the service ledger with every scheduled
        query's completion: a ``degraded_result`` landing there while a
        healthy sync run is computing must not keep that run out of the
        memo — only the run's own protocol results decide."""
        original = executor_module.secure_set_intersection_async

        async def beside_a_degraded_query(*args, **kwargs):
            service.ctx.leakage.record(
                "intersection", "*", "degraded_result", "another query's run"
            )
            return await original(*args, **kwargs)

        monkeypatch.setattr(
            executor_module, "secure_set_intersection_async", beside_a_degraded_query
        )
        first = service.query("C4 = C").glsns
        assert len(service.subplan_memo) == 1
        assert service.query("C4 = C").glsns == first
        assert reuses(service) == 1


    def test_a_burst_query_that_expires_mid_query_stores_nothing(
        self, service, monkeypatch
    ):
        """A scheduled query whose deadline expires while its cross
        predicate is computing fails alone: neither the sub-plan memo nor
        the whole-query memo keeps anything of it, and the next equal
        query recomputes and succeeds."""
        from repro.errors import DeadlineExceededError

        original = executor_module.secure_compare_batch_async
        stalled = []

        async def stall_once(*args, **kwargs):
            if not stalled:
                stalled.append(True)
                time.sleep(1.0)  # the 0.5 s budget runs out mid-query
            return await original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "secure_compare_batch_async", stall_once)
        criterion = "C1 > C5 and C3 = 'bank'"
        doomed = service.submit(criterion, timeout=0.5)
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=60)
        assert doomed.started_at is not None and doomed.cost.messages > 0
        assert len(service.subplan_memo) == 0
        assert len(service.scheduler._query_cache) == 0

        retry = service.submit(criterion)
        twin, ticket = build()
        populate(twin, ticket)
        try:
            assert retry.result(timeout=60).glsns == twin.query(criterion).glsns
        finally:
            twin.close()
        assert not retry.coalesced and reuses(service) == 0
        assert len(service.subplan_memo) == 1


class TestSyncBesideTheScheduler:
    def test_sync_query_while_a_burst_computes_the_same_predicate(
        self, service, monkeypatch
    ):
        """The burst's compare round is held open on the scheduler's worker
        thread while the main thread asks for the same predicate: nothing is
        stored yet, so the sync query computes for itself instead of waiting
        for the worker, and both store the same value."""
        main = threading.current_thread()
        started, release = threading.Event(), threading.Event()
        original = executor_module.secure_compare_batch_async
        gated_on = []

        async def gated(*args, **kwargs):
            if threading.current_thread() is not main:
                gated_on.append(threading.current_thread().name)
                started.set()
                release.wait(timeout=60)
            return await original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "secure_compare_batch_async", gated)
        twin, ticket = build()
        populate(twin, ticket)
        try:
            criteria = ["C1 > C5 and C3 = 'bank'", "C1 > C5 and C2 < 150"]
            handles = [service.submit(c) for c in criteria]
            assert started.wait(timeout=60)
            try:
                sync = service.query("C1 > C5 and C2 < 150").glsns
                assert reuses(service) == 0  # computed, not waited for
                assert len(service.subplan_memo) == 1  # the sync run's entry
            finally:
                release.set()
            burst = service.gather(handles)
            assert gated_on == ["repro-sched"]  # only the first query's round
            assert sync == burst[1].glsns
            assert [r.glsns for r in burst] == [twin.query(c).glsns for c in criteria]
            # Afterwards the memo answers both callers.
            before = reuses(service)
            assert service.query("C1 > C5 and C3 = 'bank'").glsns == burst[0].glsns
            assert reuses(service) == before + 1
        finally:
            twin.close()

    def test_a_burst_reuses_what_a_sync_query_stored(self, service):
        sync = service.query("C4 = C and C2 < 100")
        cold = service.last_query_cost
        (handle,) = handles = [service.submit("C4 = C and C2 < 100")]
        (burst,) = service.gather(handles)
        assert burst.glsns == sync.glsns
        assert [e.category for e in handle.leakage].count("coalesced_result") == 1
        # Only the conjunction ring is paid, not the glsn|value join: both
        # owners encrypt both sets of 30 composites.
        assert handle.cost.modexp == cold.modexp - 2 * (30 + 30)


def burst_shaped_criteria() -> list[str]:
    """16 distinct criteria of ``burst_mixed``'s shape, 10 of them cross."""
    cuts = (100, 200, 300)
    labels = ("bank", "shop", "tax")
    cross = (
        [f"C1 > C5 and C3 = '{label}'" for label in labels]
        + [f"C1 > C5 and C2 < {cut}" for cut in cuts]
        + [f"C4 = C and C2 < {cut}" for cut in cuts[:2]]
        + [f"C4 = C and C3 = '{label}'" for label in labels[:2]]
    )
    local = [
        "C2 < 100",
        "C2 < 250",
        "C3 = 'bank' or C3 = 'tax'",
        "C1 > 20 and C5 > 10",
        "C2 < 200 and C5 > 20",
        "C5 > 40",
    ]
    return cross + local


class TestSyncMatchesTheCoalescedBurst:
    """ROADMAP 7(i): sync queries over a burst's distinct criteria at equal
    epochs pay what one coalesced ``submit``/``gather`` burst pays."""

    def test_same_modexps_same_answers_ledger_differs_by_the_reuses(
        self, monkeypatch
    ):
        sync_svc, ticket = build(b"seven-i")
        populate(sync_svc, ticket)
        burst_svc, ticket = build(b"seven-i")
        populate(burst_svc, ticket)
        monkeypatch.setenv("REPRO_SCHED_COALESCE", "off")
        off_svc, ticket = build(b"seven-i")
        populate(off_svc, ticket)
        monkeypatch.delenv("REPRO_SCHED_COALESCE")
        try:
            criteria = burst_shaped_criteria()
            assert len(set(criteria)) == 16
            cross = [c for c in criteria if "C1 > C5" in c or "C4 = C" in c]
            assert len(cross) >= 10

            def run_sync(service):
                modexps, answers, ledgers = 0, [], []
                for criterion in criteria:
                    recorded = service.ctx.leakage.count()
                    answers.append(service.query(criterion).glsns)
                    modexps += service.last_query_cost.modexp
                    ledgers.append(service.ctx.leakage.events[recorded:])
                return modexps, answers, ledgers

            sync_modexps, sync_answers, sync_ledgers = run_sync(sync_svc)
            before = burst_svc.ctx.crypto_ops.modexp
            handles = [burst_svc.submit(c) for c in criteria]
            burst_answers = [r.glsns for r in burst_svc.gather(handles)]
            burst_modexps = burst_svc.ctx.crypto_ops.modexp - before
            off_modexps, off_answers, off_ledgers = run_sync(off_svc)

            assert sync_answers == burst_answers == off_answers
            assert sync_modexps == burst_modexps < off_modexps

            # Per query, the memo trades each reused predicate's run for one
            # coalesced_result entry and changes nothing else.
            def shape(events):
                return Counter((e.protocol, e.observer, e.category) for e in events)

            alone = {}
            for predicate in ("C1 > C5", "C4 = C"):
                recorded = off_svc.ctx.leakage.count()
                off_svc.query(predicate)
                alone[predicate] = shape(off_svc.ctx.leakage.events[recorded:])
            asked: set[str] = set()
            for criterion, on, off in zip(criteria, sync_ledgers, off_ledgers):
                reused = [p for p in alone if p in criterion and p in asked]
                asked.update(p for p in alone if p in criterion)
                gained = Counter(
                    (e.protocol, e.observer, e.category)
                    for e in on if e.category == "coalesced_result"
                )
                assert shape(on) - shape(off) == gained
                assert sum(gained.values()) == len(reused)
                assert shape(off) - shape(on) == sum(
                    (alone[p] for p in reused), Counter()
                )
        finally:
            for service in (sync_svc, burst_svc, off_svc):
                service.close()


class TestMetrics:
    @staticmethod
    def hits(service) -> int:
        return collect(service).value(
            "repro_cache_hits_total", {"cache": "query.subplan"}
        )

    def test_sync_hits_show_with_no_scheduler_built(self, service):
        service.query("C4 = C")
        assert self.hits(service) == 0
        service.query("C4 = C")
        assert self.hits(service) == 1
        assert service._scheduler is None

    def test_the_counter_survives_a_scheduler_rebuild(self, service):
        service.query("C1 > C5 and C3 = 'tax'")
        service.gather([service.submit("C1 > C5 and C2 < 90")])
        counted = self.hits(service)
        assert counted >= 1
        assert service.scheduler.coalesce_stats()["query.subplan"]["hits"] == counted
        service.shutdown_scheduler()
        assert self.hits(service) == counted
        service.gather([service.submit("C1 > C5 and C2 < 60")])
        assert self.hits(service) == counted + 1

"""QueryScheduler: correctness vs serial, coalescing, admission, deadlines."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    SchedulerShutdownError,
)
from repro.obs.metrics import collect
from repro.sched import QueryScheduler
from tests.metrics_probe import family_names, metric_value, metric_values
from tests.sched.conftest import CRITERIA, build_service, running


def assert_same_result(serial, concurrent):
    """Semantic equality: same matches, same per-clause decomposition."""
    assert serial.glsns == concurrent.glsns
    assert serial.subquery_glsns == concurrent.subquery_glsns
    assert serial.count == concurrent.count


class TestEquivalenceWithSerial:
    def test_query_many_matches_serial_per_query(self, twin_services):
        serial_svc, conc_svc = twin_services
        expected = [serial_svc.query(c) for c in CRITERIA]
        got = conc_svc.query_many(CRITERIA)
        assert len(got) == len(expected)
        for s, c in zip(expected, got):
            assert_same_result(s, c)

    def test_submit_gather_matches_serial(self, twin_services):
        serial_svc, conc_svc = twin_services
        expected = [serial_svc.query(c) for c in CRITERIA]
        handles = [conc_svc.submit(c) for c in CRITERIA]
        got = conc_svc.gather(handles)
        for s, c in zip(expected, got):
            assert_same_result(s, c)
        conc_svc.shutdown_scheduler()

    def test_coalescing_off_still_matches_serial(self, twin_services):
        serial_svc, conc_svc = twin_services
        expected = [serial_svc.query(c) for c in CRITERIA]
        conc_svc.coalesce = False
        with running(QueryScheduler(conc_svc)) as sched:
            got = sched.gather([sched.submit(c) for c in CRITERIA])
        for s, c in zip(expected, got):
            assert_same_result(s, c)
        assert sched.coalesce_stats() == {}


class TestHandles:
    def test_handle_carries_result_cost_and_leakage(self, service):
        handle = service.submit(CRITERIA[0])
        result = handle.result(timeout=60)
        assert handle.done
        assert handle.exception() is None
        assert result.glsns == service.query(CRITERIA[0]).glsns
        assert handle.latency is not None and handle.latency > 0
        assert handle.cost is not None and handle.cost.messages > 0
        assert handle.leakage  # the cross-anchor ssi discloses set sizes
        categories = {e.category for e in handle.leakage}
        assert "set_size" in categories

    def test_gather_returns_submission_order(self, service):
        handles = [service.submit(c) for c in CRITERIA]
        results = service.gather(handles)
        for criterion, result in zip(CRITERIA, results):
            assert result.plan.criterion_text == criterion


class TestCoalescing:
    def test_identical_queries_fan_out(self, service):
        sched = service.scheduler
        criterion = CRITERIA[0]
        handles = [sched.submit(criterion) for _ in range(4)]
        results = sched.gather(handles)
        assert all(r.glsns == results[0].glsns for r in results)
        coalesced = [h for h in handles if h.coalesced]
        computed = [h for h in handles if not h.coalesced]
        assert len(computed) >= 1 and len(coalesced) >= 1
        # A fanned-out query caused no traffic of its own...
        for h in coalesced:
            assert h.cost.messages == 0 and h.cost.bytes == 0
        # ...and its ledger says explicitly where the result came from.
        for h in coalesced:
            assert [e.category for e in h.leakage] == ["coalesced_result"]
        assert service.ctx.leakage.count("coalesced_result") == len(coalesced)

    def test_fanned_out_results_are_private_copies(self, service):
        sched = service.scheduler
        handles = [sched.submit(CRITERIA[0]) for _ in range(2)]
        a, b = sched.gather(handles)
        assert a.glsns == b.glsns
        if a is not b:  # coalesced pair -> distinct mutable lists
            a.glsns.append(-1)
            assert b.glsns[-1] != -1

    def test_shared_subplan_recorded_on_ledger(self):
        service = build_service()
        try:
            # Distinct criteria sharing one expensive scmp cross predicate.
            pair = ["C1 > C5 and C3 = 'bank'", "C1 > C5 and C2 < 400"]
            with running(QueryScheduler(service)) as sched:
                results = sched.gather([sched.submit(c) for c in pair])
            twin = build_service()
            for criterion, result in zip(pair, results):
                assert twin.query(criterion).glsns == result.glsns
            # The second query reused the first's C1>C5 subplan.
            assert service.ctx.leakage.count("coalesced_result") >= 1
        finally:
            service.shutdown_scheduler()

    def test_concurrent_queries_share_one_subplan_run(self):
        """Two queries of one burst on the same cross predicate run its
        SMC rounds once; the later one reads the earlier one's sub-plan
        and says so on its ledger."""
        service = build_service()
        try:
            pair = ["C1 > C5 and C3 = 'bank'", "C1 > C5 and C2 < 400"]
            handles = [service.submit(c) for c in pair]
            results = service.gather(handles)
            twin = build_service()
            for criterion, result in zip(pair, results):
                assert twin.query(criterion).glsns == result.glsns
            subplan = service.scheduler.coalesce_stats()["query.subplan"]
            assert subplan["hits"] >= 1  # the second query read the first's value
            # Exactly one query ran the comparison rounds; the other's ledger
            # carries the explicit reuse record instead.
            ran = [
                h for h in handles
                if any(e.protocol == "secure_compare" for e in h.leakage)
            ]
            shared = [
                e
                for h in handles
                if h not in ran
                for e in h.leakage
                if e.category == "coalesced_result"
            ]
            assert len(ran) == 1
            assert len(shared) == 1 and "subplan C1 > C5" in shared[0].detail
        finally:
            service.shutdown_scheduler()

    def test_columns_come_from_the_service_executors_cache(self, service):
        """One column cache per service: scheduled queries read the
        ``query.projection`` cache sync queries read, so a burst after a sync
        query builds no column, and a rebuilt scheduler keeps them."""
        cache = service.column_cache
        service.query("C3 = 'bank' or C3 = 'salary'")
        built = cache.stats.misses
        service.gather([service.submit("C3 = 'bank'")])
        service.shutdown_scheduler()
        service.gather([service.submit("C3 = 'shop'")])
        level = service.scheduler.coalesce_stats()["query.projection"]
        assert (level["hits"], level["misses"]) == (cache.stats.hits, cache.stats.misses)
        assert cache.stats.misses == built
        assert cache.stats.hits >= 2

    def test_columns_are_shared_with_coalescing_off(self, service):
        """Columns are node-local, not another query's result: with
        coalescing off a scheduled query still reads the one column cache."""
        service.coalesce = False
        cache = service.column_cache
        service.query("C3 = 'bank' or C3 = 'salary'")
        built = cache.stats.misses
        service.gather([service.submit("C3 = 'shop'")])
        assert cache.stats.misses == built
        assert cache.stats.hits >= 1

    def test_coalesce_stats_expose_all_levels(self, service):
        sched = service.scheduler
        sched.gather([sched.submit(c) for c in CRITERIA])
        stats = sched.coalesce_stats()
        assert set(stats) == {
            "query.projection",
            "query.subplan",
            "sched.query",
        }
        assert stats["sched.query"]["hits"] > 0
        # One query executes at a time, so nothing ever joins one in flight.
        assert {level["joins"] for level in stats.values()} == {0}


class TestLeakageGrouping:
    def test_ledger_groups_per_query(self, service):
        """Entries of a burst's queries never interleave: each query's private
        ledger lands in the service ledger as one contiguous group."""
        handles = [service.submit(c) for c in CRITERIA]
        service.gather(handles)
        merged = service.ctx.leakage.events
        for handle in handles:
            if not handle.leakage:
                continue
            group = handle.leakage
            starts = [
                i
                for i in range(len(merged) - len(group) + 1)
                if merged[i : i + len(group)] == group
            ]
            assert starts, f"query #{handle.seq}'s ledger group was interleaved"

    def test_within_query_order_is_deterministic(self):
        """Same query, two identically-seeded deployments, both scheduled:
        each query's private leakage sequence is identical."""
        a, b = build_service(), build_service()
        try:
            ha = [a.submit(c) for c in CRITERIA]
            hb = [b.submit(c) for c in CRITERIA]
            a.gather(ha)
            b.gather(hb)
            for x, y in zip(ha, hb):
                if x.coalesced == y.coalesced:
                    assert x.leakage == y.leakage
        finally:
            a.shutdown_scheduler()
            b.shutdown_scheduler()


class TestAdmissionControl:
    def _slow_scheduler(self, service, delay: float, **kwargs) -> QueryScheduler:
        sched = QueryScheduler(service, **kwargs)
        original = sched._execute

        def slow_execute(handle, qplan):
            time.sleep(delay)
            return original(handle, qplan)

        sched._execute = slow_execute
        return sched

    def test_deadline_expires_in_admission_queue(self, service):
        sched = self._slow_scheduler(service, delay=0.3)
        try:
            slow = sched.submit(CRITERIA[0])
            time.sleep(0.05)
            doomed = sched.submit(CRITERIA[1], timeout=0.01)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=60)
            assert doomed.exception() is not None
            # The neighbor is unaffected by the expiry.
            assert slow.result(timeout=60).glsns is not None
        finally:
            sched.shutdown()

    def test_shutdown_rejects_new_queries(self, service):
        sched = service.scheduler
        sched.gather([sched.submit(CRITERIA[0])])
        sched.shutdown()
        with pytest.raises(SchedulerShutdownError):
            sched.submit(CRITERIA[0])
        # The service rebuilds a fresh scheduler on demand.
        service.shutdown_scheduler()
        assert service.query_many([CRITERIA[0]])[0].glsns is not None

    def test_the_service_replaces_a_shut_down_scheduler(self, service):
        """Shutting down the scheduler the service hands out must not leave
        the service refusing queries: submit, query_many and a standing
        query's ingest epoch each run on a new one."""
        old = service.scheduler
        old.shutdown()
        assert service.submit(CRITERIA[0]).result(timeout=60).glsns is not None
        assert service.scheduler is not old
        service.scheduler.shutdown()
        assert len(service.query_many(CRITERIA[:2])) == 2
        deltas = []
        service.register_standing_query("C3 = 'bank'", on_delta=deltas.append)
        service.scheduler.shutdown()
        ticket = service.register_user("late-writer")
        (receipt,) = service.append_stream([{"C3": "bank", "C5": 1}], ticket)
        assert receipt.glsn in deltas[-1].added


@pytest.fixture(scope="module")
def config_service():
    return build_service(rows=2)


class TestConfig:
    def test_env_knobs(self, monkeypatch, config_service):
        monkeypatch.setenv("REPRO_SCHED_COALESCE", "off")
        service = build_service(rows=2)
        try:
            assert service.coalesce is False
            with running(QueryScheduler(service)) as sched:
                assert sched.coalesce_stats() == {}
            # ``service.coalesce`` decides for every scheduler built after it.
            service.coalesce = True
            with running(QueryScheduler(service)) as sched:
                assert "sched.query" in sched.coalesce_stats()
        finally:
            service.close()
        # The variable is read once, by the service: a scheduler built after
        # it changed follows the service it runs on.
        with running(QueryScheduler(config_service)) as sched:
            assert "sched.query" in sched.coalesce_stats()

    def test_env_defaults(self, config_service):
        with running(QueryScheduler(config_service)) as sched:
            assert "sched.query" in sched.coalesce_stats()

    @pytest.mark.parametrize("value", ["of", "maybe", "offf"])
    def test_invalid_coalesce_env_raises(self, monkeypatch, value):
        """A mistyped privacy switch must fail loudly, not keep coalescing."""
        monkeypatch.setenv("REPRO_SCHED_COALESCE", value)
        with pytest.raises(ConfigurationError, match="REPRO_SCHED_COALESCE"):
            build_service(rows=0)

    def test_sched_metrics_emitted(self):
        service = build_service()
        try:
            service.scheduler.gather(
                [service.submit(c) for c in CRITERIA]
            )
            registry = collect(service)
            families = family_names(registry)
            for name in (
                "repro_sched_submitted_total",
                "repro_sched_completed_total",
                "repro_sched_failed_total",
                "repro_sched_queue_depth",
                "repro_sched_in_flight",
                "repro_sched_admission_wait_seconds",
            ):
                assert name in families, name
            # Nothing can join a query in flight, so there is no joins family.
            assert "repro_sched_coalesce_hits_total" not in families
            assert metric_value(registry, "repro_sched_submitted_total") == len(CRITERIA)
            assert metric_value(registry, "repro_sched_completed_total") == len(CRITERIA)
            assert metric_value(registry, "repro_sched_in_flight") == 0
            wait = metric_values(registry, "repro_sched_admission_wait_seconds")[""]
            assert wait["count"] == len(CRITERIA)
        finally:
            service.shutdown_scheduler()


class TestThreadSafeSubmission:
    def test_concurrent_submitters(self, twin_services):
        """Many client threads submitting at once, with thread switches
        forced often: all results correct and no counter update lost."""
        serial_svc, conc_svc = twin_services
        expected = {c: serial_svc.query(c).glsns for c in set(CRITERIA)}
        results: dict[int, list[int]] = {}
        errors: list[BaseException] = []
        burst = CRITERIA * 4

        def client(i: int, criterion: str) -> None:
            try:
                handle = conc_svc.submit(criterion)
                results[i] = handle.result(timeout=60).glsns
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i, c))
            for i, c in enumerate(burst)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for i, criterion in enumerate(burst):
            assert results[i] == expected[criterion]
        sched = conc_svc.scheduler
        assert (sched.submitted, sched.completed, sched.failed) == (len(burst), len(burst), 0)
        assert (sched._waiting, sched.in_flight) == (0, 0)
        conc_svc.shutdown_scheduler()

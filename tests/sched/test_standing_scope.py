"""A standing query reads the rows its epoch appended, not the whole log.

After a query's first good epoch, and while no node rewrites a fragment,
each epoch runs the plan with a glsn floor: it costs what a fresh query
over the appended rows costs, its ``added`` is the floored answer and it
removes nothing.  A rewrite, a run that raises and a degraded run each
send the next epoch back to the full plan, whose diff against what the
auditor was shown covers anything the floored epochs could not see.
Neither memo serves a floored result to a full query.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.audit import executor as executor_module
from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng, Operation
from repro.errors import DeadlineExceededError, RingFailoverError, SchedulerShutdownError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.obs import Tracer
from repro.workloads import paper_table1_rows

SCHEMA = paper_table1_schema()
PLAN = paper_fragment_plan(SCHEMA)
#: Cross predicates of the paper's plan: C4@P0 = C@P2, C1@P3 > C5@P1.
CROSS_EQ, CROSS_GT = "C4 = C", "C1 > C5"


def build(tag: bytes = b"standing-scope", **kwargs):
    service = ConfidentialAuditingService(
        SCHEMA, PLAN, prime_bits=64, rng=DeterministicRng(tag), **kwargs
    )
    ticket = service.register_user(
        "writer", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    return service, ticket


def rows(count: int, start: int = 0) -> list[dict]:
    return [
        {
            "C1": (i * 37) % 50, "C5": (i * 11) % 50, "C4": i % 3, "C": (i // 2) % 3,
            "C2": i * 10, "C3": ("bank", "shop", "tax")[i % 3],
        }
        for i in range(start, start + count)
    ]


def shown(deltas) -> set[int]:
    """What the auditor holds after ``deltas``, in order."""
    out: set[int] = set()
    for delta in deltas:
        out |= set(delta.added)
        out -= set(delta.removed)
    return out


def epoch_spans(tracer) -> list[dict]:
    return [s.attributes for s in tracer.finished_spans() if s.name == "standing.epoch"]


class Cost(NamedTuple):
    modexps: int
    messages: int
    bytes: int

    def __sub__(self, other: "Cost") -> "Cost":
        return Cost(*(a - b for a, b in zip(self, other)))


def cost(service) -> Cost:
    """The service's running totals: every query and epoch folds into them."""
    stats = service.net_stats
    return Cost(service.ctx.crypto_ops.modexp, stats.messages, stats.bytes)


class TestScope:
    def test_epochs_after_the_first_read_only_the_appended_rows(self):
        tracer = Tracer()
        service, ticket = build(tracer=tracer)
        try:
            deltas = []
            query = service.register_standing_query(CROSS_EQ, on_delta=deltas.append)
            service.append_stream(rows(40), ticket, batch_size=8)
            spans = epoch_spans(tracer)
            assert [s["scope"] for s in spans] == ["full"] + ["appended"] * 4
            assert [s["rows"] for s in spans] == [8] * 5
            assert all(not d.removed for d in deltas)
            assert shown(deltas) == set(service.query(CROSS_EQ).glsns) == query.seen
            watermark = service.store.node_store("P0").watermark
            (entry,) = service.standing.snapshot()["queries"]
            assert entry["floor"] == watermark == query.floor
        finally:
            service.close()

    def test_an_epoch_with_nothing_appended_runs_nothing(self):
        tracer = Tracer()
        service, ticket = build(tracer=tracer)
        try:
            query = service.register_standing_query(CROSS_EQ)
            service.append_stream(rows(16), ticket, batch_size=8)
            before = cost(service)
            (delta,) = service.poll_standing()
            assert cost(service) == before
            assert delta.empty and delta.total == len(query.seen) > 0
            assert epoch_spans(tracer)[-1] == {
                "epoch": 3, "queries": 1, "scope": "appended", "rows": 0,
            }
        finally:
            service.close()

    @pytest.mark.parametrize("rewrite", ["delete", "tamper", "evict"])
    def test_a_rewrite_sends_the_next_epoch_full(self, rewrite):
        tracer = Tracer()
        service, ticket = build(tracer=tracer)
        try:
            deltas = []
            service.register_standing_query(CROSS_EQ, on_delta=deltas.append)
            service.append_stream(rows(24), ticket, batch_size=8)
            target = service.query(CROSS_EQ).glsns[0]
            if rewrite == "delete":
                service.store.delete_record(target, ticket)
            elif rewrite == "tamper":
                service.store.node_store("P2").tamper(target, "C", 7)
            else:
                service.store.node_store("P0").evict(target)
            service.append_stream(rows(8, 24), ticket, batch_size=8)
            assert [s["scope"] for s in epoch_spans(tracer)] == [
                "full", "appended", "appended", "full",
            ]
            assert target in deltas[-1].removed
            assert shown(deltas) == set(service.query(CROSS_EQ).glsns)
            service.poll_standing()
            assert epoch_spans(tracer)[-1]["scope"] == "appended"
        finally:
            service.close()

    def test_a_query_registered_mid_stream_starts_full(self):
        tracer = Tracer()
        service, ticket = build(tracer=tracer)
        try:
            first = []
            service.register_standing_query(CROSS_GT, on_delta=first.append)
            service.append_stream(rows(16), ticket, batch_size=8)
            late = []
            service.register_standing_query(CROSS_EQ, on_delta=late.append)
            service.append_stream(rows(16, 16), ticket, batch_size=8)
            # The late query's first epoch reads the whole log for both.
            assert [s["scope"] for s in epoch_spans(tracer)] == [
                "full", "appended", "full", "appended",
            ]
            assert shown(first) == set(service.query(CROSS_GT).glsns)
            assert shown(late) == set(service.query(CROSS_EQ).glsns)
        finally:
            service.close()


class TestCost:
    @pytest.mark.parametrize("criterion", [CROSS_EQ, CROSS_GT])
    def test_an_appended_epoch_costs_a_fresh_query_over_its_rows(self, criterion):
        """Modexps (the ``∩ₛ`` of ``=``), messages and bytes (the blind
        compare of ``>``, which takes no modexp) of one appended epoch
        equal a fresh service's query over just the appended rows."""
        service, ticket = build()
        fresh, fresh_ticket = build(b"standing-scope-fresh")
        try:
            service.store.append_batch(rows(48), ticket)
            service.register_standing_query(criterion)
            before = cost(service)
            service.poll_standing()
            whole_log = cost(service) - before
            service.store.append_batch(rows(8, 48), ticket)
            before = cost(service)
            service.poll_standing()
            appended = cost(service) - before

            fresh.store.append_batch(rows(8, 48), fresh_ticket)
            before = cost(fresh)
            fresh.query(criterion)
            assert appended == cost(fresh) - before
            assert appended.bytes > 0 and whole_log.bytes > 2 * appended.bytes
            assert whole_log.modexps >= 6 * appended.modexps
        finally:
            service.close()
            fresh.close()

    @pytest.mark.parametrize("criterion", [CROSS_EQ, CROSS_GT, "C2 < 200"])
    def test_an_ad_hoc_query_after_a_floored_epoch_gets_the_full_answer(self, criterion):
        service, ticket = build()
        twin, twin_ticket = build(b"standing-scope-twin")
        try:
            service.register_standing_query(criterion)
            service.append_stream(rows(24), ticket, batch_size=8)
            twin.store.append_batch(rows(24), twin_ticket)
            full = twin.query(criterion).glsns
            assert not set(full) <= set(service.store.glsns[-8:])  # not the last epoch's
            # Equal store epochs to the last floored run: only the floor
            # in both memos' keys tells the two answers apart.
            assert service.query(criterion).glsns == full
            assert service.gather([service.submit(criterion)])[0].glsns == full
            assert list(service.audited_query(criterion).glsns) == full
        finally:
            service.close()
            twin.close()


class TestFailedRuns:
    @pytest.mark.parametrize(
        "error",
        [
            DeadlineExceededError("budget spent", stage="test"),
            RingFailoverError("failover budget exhausted"),
            SchedulerShutdownError("scheduler is shut down"),
        ],
        ids=["deadline", "failover", "shutdown"],
    )
    def test_a_run_that_raises_does_not_advance_the_floor(self, error, monkeypatch):
        tracer = Tracer()
        service, ticket = build(tracer=tracer)
        original = executor_module.secure_set_intersection_async
        armed = []

        async def fail_when_armed(*args, **kwargs):
            if armed:
                armed.clear()
                raise error
            return await original(*args, **kwargs)

        monkeypatch.setattr(
            executor_module, "secure_set_intersection_async", fail_when_armed
        )
        try:
            deltas = []
            query = service.register_standing_query(CROSS_EQ, on_delta=deltas.append)
            service.append_stream(rows(16), ticket, batch_size=8)
            floor = query.floor
            armed.append(True)
            with pytest.raises(type(error)):
                service.append_stream(rows(8, 16), ticket, batch_size=8)
            assert query.floor is None and floor is not None
            service.append_stream(rows(8, 24), ticket, batch_size=8)
            assert epoch_spans(tracer)[-1]["scope"] == "full"
            missed = {
                glsn for glsn in service.query(CROSS_EQ).glsns
                if floor <= glsn < floor + 8
            }
            assert missed and missed <= set(deltas[-1].added)
            assert shown(deltas) == set(service.query(CROSS_EQ).glsns)
        finally:
            service.close()

    def test_a_degraded_run_does_not_advance_the_floor(self):
        from repro.net.faults import FaultPlan
        from repro.resilience import RetryPolicy

        faults = FaultPlan()
        tracer = Tracer()
        service, ticket = build(tracer=tracer, faults=faults, resilience=RetryPolicy())
        try:
            deltas = []
            query = service.register_standing_query(CROSS_EQ, on_delta=deltas.append)
            service.append_stream(rows(16), ticket, batch_size=8)
            faults.crash("P0")  # the ring completes without C4's owner
            service.append_stream(rows(8, 16), ticket, batch_size=8)
            assert service.ctx.leakage.count("degraded_result") >= 1
            assert query.floor is None
            faults.recover("P0")
            service.append_stream(rows(8, 24), ticket, batch_size=8)
            assert [s["scope"] for s in epoch_spans(tracer)] == [
                "full", "appended", "appended", "full",
            ]
            assert shown(deltas) == set(service.query(CROSS_EQ).glsns)
        finally:
            service.close()


class TestObservatory:
    def test_only_the_deltas_are_observed_under_the_registering_tenant(self):
        service, ticket = build()
        try:
            query = service.register_standing_query("id == 'U1'", tenant="auditor-7")
            stream = [
                dict(row, Tid=f"T{i:07d}") for i, row in enumerate(paper_table1_rows() * 5)
            ]
            service.append_stream(stream, ticket, batch_size=4)
            report = service.observatory.report()
            assert "default" not in report["tenants"]
            assert report["queries"] == query.deltas_pushed > 0
            assert report["tenants"]["auditor-7"]["queries"] == query.deltas_pushed
        finally:
            service.close()

"""Standing queries: delta equivalence, leakage accounting, live C_DLA."""

import pytest

from repro.core.service import ConfidentialAuditingService
from repro.crypto.rng import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.workloads import paper_table1_rows


@pytest.fixture()
def service():
    schema = paper_table1_schema()
    svc = ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=64,
        rng=DeterministicRng(b"standing"),
    )
    yield svc
    svc.close()


def ingest_rows():
    rows = paper_table1_rows() * 3
    for i, row in enumerate(rows):
        row = dict(row)
        row["Tid"] = f"T{i:07d}"
        yield row


CRITERION = "id == 'U1'"


class TestDeltaEquivalence:
    def test_deltas_union_to_full_requery(self, service):
        ticket = service.register_user("writer")
        deltas = []
        service.register_standing_query(CRITERION, on_delta=deltas.append)
        service.append_stream(ingest_rows(), ticket, batch_size=4)
        continuous = set()
        for delta in deltas:
            continuous |= set(delta.added)
            continuous -= set(delta.removed)
        baseline = service.query(CRITERION)
        assert continuous == set(baseline.glsns)
        assert len(baseline.glsns) > 0

    def test_deltas_are_disjoint_per_epoch(self, service):
        ticket = service.register_user("writer")
        deltas = []
        service.register_standing_query(CRITERION, on_delta=deltas.append)
        service.append_stream(ingest_rows(), ticket, batch_size=5)
        seen = set()
        for delta in deltas:
            assert seen.isdisjoint(delta.added)
            seen |= set(delta.added)

    def test_quiet_epoch_pushes_nothing(self, service):
        ticket = service.register_user("writer")
        deltas = []
        service.register_standing_query(CRITERION, on_delta=deltas.append)
        rows = [r for r in ingest_rows() if r["id"] != "U1"]
        service.append_stream(rows, ticket, batch_size=4)
        assert deltas == []
        # The registry still evaluated: empty deltas exist, none pushed.
        assert service.standing.snapshot()["epoch"] > 0

    def test_delete_reported_as_removed(self, service):
        from repro.crypto.tickets import Operation

        ticket = service.register_user(
            "writer", {Operation.READ, Operation.WRITE, Operation.DELETE}
        )
        receipts = service.append_stream(ingest_rows(), ticket, batch_size=100)
        deltas = []
        query = service.register_standing_query(CRITERION, on_delta=deltas.append)
        first = service.poll_standing()
        target = deltas[-1].added[0]
        service.store.delete_record(target, ticket)
        service.poll_standing()
        assert target in deltas[-1].removed
        assert target not in query.seen

    def test_unregister_stops_deltas(self, service):
        ticket = service.register_user("writer")
        deltas = []
        query = service.register_standing_query(CRITERION, on_delta=deltas.append)
        service.standing.unregister(query.query_id)
        service.append_stream(ingest_rows(), ticket, batch_size=4)
        assert deltas == []


class TestLeakageAccounting:
    def test_each_pushed_delta_recorded_once(self, service):
        ticket = service.register_user("writer")
        deltas = []
        service.register_standing_query(CRITERION, on_delta=deltas.append)
        service.append_stream(ingest_rows(), ticket, batch_size=4)
        events = [
            e for e in service.ctx.leakage.events if e.category == "standing_delta"
        ]
        assert len(events) == len(deltas) > 0
        assert all(e.protocol == "standing_query" for e in events)

    def test_observatory_tracks_standing_tenant(self, service):
        ticket = service.register_user("writer")
        service.register_standing_query(CRITERION, tenant="auditor-7")
        service.append_stream(ingest_rows(), ticket, batch_size=4)
        c_dla = service.observatory.c_dla("auditor-7")
        assert c_dla is not None and c_dla > 0

    def test_standing_criterion_labeled(self, service):
        ticket = service.register_user("writer")
        service.register_standing_query(CRITERION, tenant="auditor-7")
        service.append_stream(ingest_rows(), ticket, batch_size=100)
        report = service.observatory.report()
        text = str(report)
        assert "standing:" in text

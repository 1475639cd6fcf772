"""The observatory scores attribute signatures, not rows — same numbers.

``C_store`` (eq. 10) reads only *which* attributes a record uses, so
``observe_query`` scores each distinct attribute set once and weights it by
its count.  The reference throughout is the per-record computation it
replaced — ``statistics.mean`` of one ``store_confidentiality`` per
``LogRecord`` — and the comparison is ``==`` on floats, not ``approx``.
"""

from __future__ import annotations

from statistics import mean

from hypothesis import given, settings, strategies as st

from repro.audit.confidentiality import (
    auditing_confidentiality,
    store_confidentiality,
)
from repro.audit.planner import plan_query
from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import LogRecord, paper_fragment_plan, paper_table1_schema
from repro.logstore.fragmentation import FragmentPlan
from repro.obs.confidentiality import ConfidentialityObservatory

SCHEMA = paper_table1_schema()
PLAN = paper_fragment_plan(SCHEMA)
EVERYTHING = "Tid != 'no-such-transaction'"  # every row below carries Tid

# Attribute sets whose scores v·u/w are 1, 2/3, 3/2, 12/7, 2 and 1: a mean
# over a mix of them is sensitive to the order and precision of the sum.
SIGNATURES = [
    ("Tid", "C1"),
    ("Tid", "C1", "ip"),
    ("Tid", "Time", "id", "C2", "C3"),
    ("Tid", "Time", "C4", "id", "EID", "C2", "C1"),
    tuple(SCHEMA.names),
    ("Tid",),
]


def _row(i: int, names) -> dict:
    return {name: f"T{i}" if name == "Tid" else i % 50 for name in names}


def _rows(count: int) -> list[dict]:
    """Sparse rows: the signatures in uneven proportions (5 : 3 : 2 : 1 : 1 : 1)."""
    pattern = [0] * 5 + [1] * 3 + [2] * 2 + [3, 4, 5]
    return [_row(i, SIGNATURES[pattern[i % len(pattern)]]) for i in range(count)]


def _per_record_c_query(criterion: str, rows) -> float:
    """What the parent commit computed: one ``LogRecord`` and one score per row."""
    c_store = mean(
        store_confidentiality(LogRecord(glsn=i, values=row), SCHEMA, PLAN).value
        for i, row in enumerate(rows)
    )
    return auditing_confidentiality(criterion, SCHEMA, PLAN) * c_store


@settings(max_examples=200, deadline=None)
@given(picks=st.lists(st.integers(0, len(SIGNATURES) - 1), min_size=1, max_size=80))
def test_weighted_signature_mean_is_the_per_record_mean_bit_for_bit(picks):
    rows = [_row(i, SIGNATURES[pick]) for i, pick in enumerate(picks)]
    qplan = plan_query(EVERYTHING, SCHEMA, PLAN)
    observatory = ConfidentialityObservatory(SCHEMA, PLAN)
    by_names = observatory.observe_query(qplan, [frozenset(row) for row in rows], 0)
    by_records = observatory.observe_query(
        qplan, [LogRecord(glsn=i, values=row) for i, row in enumerate(rows)], 0
    )
    assert by_names.c_query == by_records.c_query == _per_record_c_query(EVERYTHING, rows)
    assert by_names.c_store == by_records.c_store
    assert by_names.matches == len(rows)


def test_no_records_still_scores_one():
    observatory = ConfidentialityObservatory(SCHEMA, PLAN)
    obs = observatory.observe_query(plan_query(EVERYTHING, SCHEMA, PLAN), [], 0)
    assert obs.c_store == 1.0 and obs.c_query == obs.c_auditing


def _service(rows) -> ConfidentialAuditingService:
    service = ConfidentialAuditingService(
        SCHEMA, PLAN, prime_bits=64, rng=DeterministicRng(b"observe-signatures")
    )
    service.store.append_batch(rows, service.register_user("writer"))
    return service


def test_service_query_over_sparse_rows_is_bit_equal():
    rows = _rows(130)
    service = _service(rows)
    for tenant, criterion, matched in [
        ("all", EVERYTHING, rows),
        ("some", "C1 < 20", [r for r in rows if "C1" in r and r["C1"] < 20]),
        ("none", "C1 > 1000", []),
    ]:
        assert len(service.query(criterion, tenant=tenant).glsns) == len(matched)
        want = _per_record_c_query(criterion, matched) if matched else (
            auditing_confidentiality(criterion, SCHEMA, PLAN)
        )
        assert service.observatory.c_dla(tenant) == want  # one query: its C_query


def test_standing_query_epochs_score_their_delta_rows_bit_equal():
    rows = _rows(60)
    service = ConfidentialAuditingService(
        SCHEMA, PLAN, prime_bits=64, rng=DeterministicRng(b"observe-signatures"),
    )
    try:
        deltas = []
        service.register_standing_query(EVERYTHING, tenant="live", on_delta=deltas.append)
        receipts = service.append_stream(rows, service.register_user("writer"), batch_size=7)
        logged = {receipt.glsn: row for receipt, row in zip(receipts, rows)}
        per_epoch = [
            _per_record_c_query(EVERYTHING, [logged[glsn] for glsn in delta.added])
            for delta in deltas
        ]
        assert len(per_epoch) == 9 and sum(len(d.added) for d in deltas) == len(rows)
        assert service.observatory.c_dla("live") == mean(per_epoch)
    finally:
        service.close()


def test_one_score_per_signature_and_no_record_rebuilt(monkeypatch):
    """1 000 result rows of six signatures: six cover searches, no LogRecord."""
    service = _service(_rows(1000))
    cover_calls, records_built = [], []
    cover = FragmentPlan.minimum_cover_count
    monkeypatch.setattr(
        FragmentPlan,
        "minimum_cover_count",
        lambda plan, names: cover_calls.append(frozenset(names)) or cover(plan, names),
    )
    monkeypatch.setattr(
        LogRecord, "__post_init__", lambda record: records_built.append(record)
    )
    result = service.query(EVERYTHING)
    assert len(result.glsns) == 1000
    assert len(cover_calls) == len(set(cover_calls)) == len(SIGNATURES)
    assert records_built == []


def test_query_after_records_were_evicted_is_bit_equal():
    """Records every node lost score as absent: the survivors' mean."""
    rows = _rows(48)
    service = _service(rows)
    glsns = service.store.glsns
    lost = set(glsns[::5])
    for glsn in lost:
        for node_id in PLAN.node_ids:
            service.store.node_store(node_id).evict(glsn)
    kept = [(glsn, row) for glsn, row in zip(glsns, rows) if glsn not in lost]
    assert service.query(EVERYTHING).glsns == [glsn for glsn, _ in kept]
    assert service.observatory.c_dla("default") == _per_record_c_query(
        EVERYTHING, [row for _, row in kept]
    )

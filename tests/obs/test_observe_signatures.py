"""The observatory scores attribute signatures, not rows — same numbers.

``C_store`` (eq. 10) reads only *which* attributes a record uses, so
``observe_query`` scores each distinct attribute set once and weights it by
its count.  The reference throughout is the per-record computation it
replaced — ``statistics.mean`` of one ``store_confidentiality`` per
``LogRecord`` — and the comparison is ``==`` on floats, not ``approx``.
"""

from __future__ import annotations

import sys
import threading
from statistics import mean

from hypothesis import given, settings, strategies as st

from repro.audit.confidentiality import (
    auditing_confidentiality,
    store_confidentiality,
)
from repro.audit.planner import plan_query
from repro.cache import cache_stats_snapshot, set_caching_enabled
from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng, Operation
from repro.logstore import LogRecord, paper_fragment_plan, paper_table1_schema
from repro.logstore.fragmentation import FragmentPlan
from repro.obs.confidentiality import ConfidentialityObservatory
from repro.obs.metrics import collect
from tests.metrics_probe import metric_value

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


def test_signatures_follow_every_rewrite_of_the_log():
    """Each rewrite that changes a record's attribute names — a tamper that
    adds one, a delete, an eviction on one node, a put below the watermark
    — and a record some nodes store before others are scored from the log
    as it is after them, query by query."""
    rows = _rows(40)
    service = ConfidentialAuditingService(
        SCHEMA, PLAN, prime_bits=64, rng=DeterministicRng(b"observe-signatures")
    )
    ticket = service.register_user(
        "writer", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    receipts = service.store.append_batch(rows, ticket)
    expected = {receipt.glsn: dict(row) for receipt, row in zip(receipts, rows)}
    glsns = list(expected)

    def check(tenant: str) -> None:
        assert service.query(EVERYTHING, tenant=tenant).glsns == sorted(expected)
        assert service.observatory.c_dla(tenant) == _per_record_c_query(
            EVERYTHING, list(expected.values())
        )

    check("before")  # builds the index

    # A tamper on P0 gives a ("Tid", "C1") record an attribute it lacked.
    target = glsns[0]
    assert set(expected[target]) == {"Tid", "C1"}
    service.store.node_store("P0").tamper(target, "Time", 99)
    expected[target]["Time"] = 99
    check("tamper")

    service.store.delete_record(glsns[1], ticket)
    del expected[glsns[1]]
    check("delete")

    # P1 alone loses the fragment of a record with attributes there.
    target = glsns[10]
    assert {"id", "C2"} <= set(expected[target])
    service.store.node_store("P1").evict(target)
    for name in PLAN.assignment["P1"]:
        expected[target].pop(name, None)
    check("evict")

    # A record put under a glsn below every stored one.
    below = min(expected) - 1
    row = _row(below, SIGNATURES[3])
    for node_id, fragment in PLAN.fragment(LogRecord(glsn=below, values=row)).items():
        service.store.node_store(node_id).stage_put([fragment], ticket, [0])()
    expected[below] = row
    check("put-below")

    # Appends after all that.
    more = _rows(9)
    receipts = service.store.append_batch(more, ticket)
    expected.update((receipt.glsn, row) for receipt, row in zip(receipts, more))
    check("append")

    # A record that P2 (which holds Tid) and P3 store before P0 and P1 do,
    # as a writer mid-batch leaves it: asked in between, and after.
    top = max(expected) + 1
    row = _row(top, tuple(SCHEMA.names))
    fragments = PLAN.fragment(LogRecord(glsn=top, values=row))
    for node_id in ("P2", "P3"):
        service.store.node_store(node_id).stage_put([fragments[node_id]], ticket, [0])()
    expected[top] = {
        name: value
        for name, value in row.items()
        if name in PLAN.assignment["P2"] + PLAN.assignment["P3"]
    }
    check("half-written")
    for node_id in ("P0", "P1"):
        service.store.node_store(node_id).stage_put([fragments[node_id]], ticket, [0])()
    expected[top] = row
    check("written")


class _CountingDict(dict):
    """A node's fragment map that counts every read of it."""

    reads = 0

    def _count(self) -> None:
        _CountingDict.reads += 1

    def __getitem__(self, key):
        self._count()
        return super().__getitem__(key)

    def get(self, *args):
        self._count()
        return super().get(*args)

    def __contains__(self, key):
        self._count()
        return super().__contains__(key)

    def __iter__(self):
        self._count()
        return super().__iter__()

    def __reversed__(self):
        self._count()
        return super().__reversed__()

    def keys(self):
        self._count()
        return super().keys()

    def values(self):
        self._count()
        return super().values()

    def items(self):
        self._count()
        return super().items()


def test_asking_again_at_one_epoch_reads_no_fragment(monkeypatch):
    """The second asking of a 1 000-row query builds no signature: it reads
    no node's fragments at all, and scores the same."""
    service = _service(_rows(1000))
    first = service.query(EVERYTHING, tenant="first")
    assert len(first.glsns) == 1000
    for node_id in PLAN.node_ids:
        node = service.store.node_store(node_id)
        monkeypatch.setattr(node, "_fragments", _CountingDict(node._fragments))
    monkeypatch.setattr(_CountingDict, "reads", 0)
    second = service.query(EVERYTHING, tenant="second")
    assert second.glsns == first.glsns
    assert _CountingDict.reads == 0
    assert service.observatory.c_dla("second") == service.observatory.c_dla("first")


def test_with_caching_off_every_asking_reads_the_fragments(monkeypatch):
    """The cache kill switch reaches the kept signatures too: nothing is
    kept, a second asking reads the fragments again, and a tamper that
    adds an attribute between the two askings is scored."""
    rows = _rows(40)
    service = _service(rows)
    set_caching_enabled(False)
    try:
        service.query(EVERYTHING, tenant="first")
        target = service.store.glsns[0]
        assert set(rows[0]) == {"Tid", "C1"}
        service.store.node_store("P0").tamper(target, "Time", 99)
        rows[0] = {**rows[0], "Time": 99}
        for node_id in PLAN.node_ids:
            node = service.store.node_store(node_id)
            monkeypatch.setattr(node, "_fragments", _CountingDict(node._fragments))
        monkeypatch.setattr(_CountingDict, "reads", 0)
        service.query(EVERYTHING, tenant="tamper")
        assert _CountingDict.reads > 0
    finally:
        set_caching_enabled(None)
    assert service._signatures._kept.stats.entries == 0
    assert service.observatory.c_dla("tamper") == _per_record_c_query(EVERYTHING, rows)


def test_kept_signatures_are_bounded_and_counted():
    """The kept signatures are an LRU of bounded size that ``/metrics``
    counts: a query matching more glsns than it holds evicts, keeps the
    bound and still scores every match."""
    rows = _rows(130)
    service = _service(rows)
    kept = service._signatures._kept
    kept.max_entries = 100
    for tenant in ("first", "second"):
        assert len(service.query(EVERYTHING, tenant=tenant).glsns) == 130
        assert service.observatory.c_dla(tenant) == _per_record_c_query(EVERYTHING, rows)
    stats = kept.stats
    assert stats.entries == 100 and stats.evictions >= 30
    assert stats.hits > 0 and stats.misses >= 130
    assert cache_stats_snapshot()["obs.signatures"]["entries"] >= 100


def test_metrics_count_the_kept_signatures():
    """``/metrics`` has an ``obs.signatures`` series beside the other
    service-owned caches, read from the service's own cache."""
    service = _service(_rows(30))
    service.query(EVERYTHING)
    service.query(EVERYTHING)
    registry = collect(service)
    stats = service._signatures._kept.stats
    for family, value in (
        ("repro_cache_entries", 30),
        ("repro_cache_misses_total", 30),
        ("repro_cache_hits_total", 30),
    ):
        assert metric_value(registry, family, {"cache": "obs.signatures"}) == value
    assert (stats.entries, stats.misses, stats.hits) == (30, 30, 30)


def test_concurrent_observers_and_writers_leave_every_signature_right():
    """Queries on two threads (the caller's and the scheduler's) observe
    while a writer appends and tampers; afterwards the index holds each
    glsn's names as its fragments carry them."""
    service = _service(_rows(60))
    ticket = service.register_user("writer-2")
    done = threading.Event()
    errors = []

    def write() -> None:
        try:
            for batch in range(20):
                receipts = service.store.append_batch(_rows(10), ticket)
                if batch % 7 == 3:
                    service.store.node_store("P3").tamper(
                        receipts[0].glsn, "ip", "10.0.0.1"
                    )
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)
        finally:
            done.set()

    def observe(ask) -> None:
        try:
            while not done.is_set():
                ask(EVERYTHING)
        except Exception as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=write),
            threading.Thread(target=observe, args=(service.query,)),
            threading.Thread(
                target=observe, args=(lambda c: service.submit(c).result(timeout=30),)
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
        service.close()
    assert errors == []
    glsns = service.store.glsns
    nodes = service.store.stores.values()
    truth = [
        frozenset().union(*(node.held_values([glsn])[0] for node in nodes))
        for glsn in glsns
    ]
    assert service._record_attributes(glsns) == truth

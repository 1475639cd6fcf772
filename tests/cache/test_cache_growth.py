"""Distinct questions over an unchanged log must not grow the caches.

A cache keyed on the *criterion* holds one entry per distinct question ever
asked — memory that scales with the auditors' curiosity, not with the log.
The per-predicate scan cache did exactly that (300 entries after the loop
below); the per-(node, attribute, epoch) column cache is bounded by the
schema, so after the first pass every cache the service or its scheduler
owns keeps its ``len()``.
"""

from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema

ROWS = 2000
CRITERIA = [
    template.format(n=n)
    for n in range(100)
    for template in ("C2 < {n}", "C5 > {n} and C2 < 400", "protocl = 'tcp' and C1 > {n}")
]


def _caches(owner) -> dict[str, object]:
    """Every cache-shaped attribute of ``owner`` (has ``get_or_compute``)."""
    return {
        name: value
        for name, value in vars(owner).items()
        if hasattr(value, "get_or_compute")
    }


def _sizes(service) -> dict[str, int]:
    found = {**_caches(service), **_caches(service.scheduler)}
    # The whole-result memo is keyed by plan fingerprint: one entry per
    # distinct question is its contract (coalescing identical queries).
    found.pop("query_memo")
    return {name: getattr(cache, "cache", cache).stats.entries for name, cache in found.items()}


def test_three_hundred_distinct_local_criteria_leave_every_cache_at_constant_size():
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"cache-growth"),
    )
    service.store.append_batch(
        [
            {"C1": i % 89, "C2": i % 500, "C5": i % 97, "protocl": ("tcp", "udp")[i % 2]}
            for i in range(ROWS)
        ],
        service.register_user("writer"),
    )
    try:
        assert len(set(CRITERIA)) == 300
        scheduler = service.scheduler
        first = CRITERIA[:3]  # touches every column the loop will read
        for criterion in first:
            service.query(criterion)
        scheduler.gather([scheduler.submit(c) for c in first])
        before = _sizes(service)

        for criterion in CRITERIA:
            service.query(criterion)
        scheduler.gather([scheduler.submit(c) for c in CRITERIA])
        assert _sizes(service) == before
        # ... and not because nothing is cached: C2, C5, protocl and C1,
        # in the one column cache both paths share
        assert set(before) == {"column_cache", "subplan_memo"}
        assert before["column_cache"] == 4
    finally:
        service.shutdown_scheduler()


def test_a_new_epoch_replaces_the_columns_of_the_old_one():
    """Storing a column at store epoch e drops that (node, attribute)'s
    column of an older epoch at once: ingest epochs, each with a standing
    query's evaluation and an ad-hoc query, leave one column per (node,
    attribute) the queries read."""
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"cache-epochs"),
    )
    writer = service.register_user("writer")
    try:
        service.register_standing_query("C2 < 100 and C4 = C")
        for epoch in range(8):
            service.append_stream(
                [{"C2": i * 7 % 300, "C4": i % 2, "C": i % 3, "C3": "bank"}
                 for i in range(epoch * 10, epoch * 10 + 10)],
                writer,
            )
            service.query("C2 < 100 and C3 = 'bank'")
        cache = service.column_cache
        # The standing query's first epoch read C4 and C whole; its later
        # epochs read only appended rows, which are not kept.
        assert sorted(cache._entries) == [
            ("P0", "C4"), ("P1", "C2"), ("P2", "C"), ("P2", "C3"),
        ]
    finally:
        service.close()

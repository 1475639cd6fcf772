"""Ablation A3: early-exit clause ordering in the query executor.

The executor evaluates SMC-free local clauses first and stops when any
clause comes back empty (an empty clause empties the conjunction).  On
selective queries this skips the expensive cross-predicate protocols
entirely; on non-selective queries it changes nothing.  Early exit is
always on, so the selective query is reported against its cross clause
``C1 < C2`` run alone: that is what evaluating every clause would pay, as
the local clause shares the cross clause's anchor (P3) and no final ring
runs.
"""

from benchmarks.conftest import print_rows
from repro.audit.executor import QueryExecutor
from repro.crypto import DeterministicRng
from repro.smc.base import SmcContext

SELECTIVE = "C1 > 100000 and C1 < C2"      # local clause empty
CROSS_ALONE = "C1 < C2"                    # what the selective query skips
NON_SELECTIVE = "C1 > 0 and C1 < C2"       # local clause full


def build(loaded_store, schema, prime64, seed: bytes):
    store, _ = loaded_store
    return QueryExecutor(store, SmcContext(prime64, DeterministicRng(seed)), schema)


class TestEarlyExitAblation:
    def test_bench_selective_with_early_exit(
        self, benchmark, loaded_store, schema, prime64
    ):
        executor = build(loaded_store, schema, prime64, b"a3a")
        result = benchmark(executor.execute, SELECTIVE)
        assert result.glsns == [] and result.messages == 0

    def test_bench_cross_clause_alone(self, benchmark, loaded_store, schema, prime64):
        executor = build(loaded_store, schema, prime64, b"a3b")
        result = benchmark(executor.execute, CROSS_ALONE)
        assert result.glsns and result.messages > 0

    def test_ablation_report(self, benchmark, loaded_store, schema, prime64):
        def measure():
            rows = []
            for label, criterion in (
                ("selective", SELECTIVE),
                ("cross clause alone", CROSS_ALONE),
                ("non-selective", NON_SELECTIVE),
            ):
                executor = build(
                    loaded_store, schema, prime64, f"a3-{label}".encode()
                )
                result = executor.execute(criterion)
                rows.append((label, result.messages, result.bytes, len(result.glsns)))
            return rows

        rows = benchmark(measure)
        print_rows(
            "A3: early-exit clause ordering",
            ["query", "messages", "bytes", "matches"],
            rows,
        )
        by_label = {r[0]: r for r in rows}
        # Selective: early exit eliminates all traffic the cross clause costs.
        assert by_label["selective"][1] == 0
        assert by_label["cross clause alone"][1] > 0
        # Non-selective: the cross clause's cost, nothing skipped or added.
        assert by_label["non-selective"][1:3] == by_label["cross clause alone"][1:3]

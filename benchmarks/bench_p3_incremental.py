"""Experiment P3: incremental recomputation elimination.

Measures what the epoch-keyed integrity memo and the batched integrity
rings buy on the service's steady-state workload:

* **Incremental integrity.**  ``IntegrityChecker.check_all`` after one
  append re-folds exactly the new glsn.
* **Integrity-ring sweep.**  Messages on the simulated network for the
  legacy per-glsn ring (O(nodes × glsns)) vs the batched multi-glsn token
  and the combined single-pow ring (both exactly ``nodes`` messages,
  verified via ``NetworkStats``).

The "repeated query ≥ 2× faster warm" half this file used to open with
measured the per-predicate scan cache, which is gone: a repeated local
query now costs what the first one did once its columns are built, and
``benchmarks/e2e`` ``local_scan`` is where that cost is tracked.

Writes ``BENCH_p3.json`` at the repo root.

Environment knob (for CI smoke runs on tiny machines):

- ``REPRO_BENCH_ROWS``         log size                  (default 1200)
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import print_rows
from repro.cache import cache_stats_snapshot
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.logstore.integrity import (
    IntegrityChecker,
    run_batched_integrity_round,
    run_combined_integrity_round,
    run_integrity_round,
)
from repro.net.simnet import SimNetwork

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "1200"))
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_p3.json"


def _rows(count: int) -> list[dict]:
    rnd = random.Random(31)
    return [
        {
            "Time": f"{i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d}/05/12/20",
            "id": f"U{rnd.randrange(1, 6)}",
            "protocl": rnd.choice(["UDP", "TCP"]),
            "Tid": f"T{1100265 + rnd.randrange(8)}",
            "C1": rnd.randrange(0, 120),
            "C2": f"{rnd.randrange(1, 900)}.{rnd.randrange(100):02d}",
            "C3": rnd.choice(["signature", "bank", "salary", "account"]),
        }
        for i in range(count)
    ]


def _build(rows: int):
    schema = paper_table1_schema()
    plan = paper_fragment_plan(schema)
    authority = TicketAuthority(b"p3-bench-master-secret-012345678")
    store = DistributedLogStore(
        plan,
        authority,
        AccumulatorParams.generate(128, DeterministicRng(b"p3-acc")),
    )
    ticket = authority.issue(
        "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    store.append_record(_rows(rows), ticket)
    return store, ticket


class TestIncrementalElimination:
    def test_incremental_integrity_and_ring_sweep(self):
        store, ticket = _build(ROWS)
        results: dict = {"experiment": "P3", "rows": ROWS}

        # -- incremental integrity: one append folds one glsn --------------
        checker = IntegrityChecker(store)
        start = time.perf_counter()
        first = checker.check_all()
        t_full = time.perf_counter() - start
        assert all(r.ok for r in first)
        store.append(_rows(1)[0], ticket)
        misses_before = checker._report_cache.stats.misses
        start = time.perf_counter()
        second = checker.check_all()
        t_incr = time.perf_counter() - start
        assert all(r.ok for r in second) and len(second) == len(first) + 1
        refolded = checker._report_cache.stats.misses - misses_before
        assert refolded == 1  # only the appended glsn was recomputed
        results["integrity_incremental"] = {
            "full_ms": round(t_full * 1e3, 3),
            "after_append_ms": round(t_incr * 1e3, 3),
            "glsns_refolded": refolded,
        }
        print_rows(
            f"P3: IntegrityChecker.check_all over {len(second)} glsns",
            ["run", "ms", "glsns re-folded"],
            [
                ("cold", f"{t_full * 1e3:.1f}", len(first)),
                ("after 1 append", f"{t_incr * 1e3:.1f}", refolded),
            ],
        )

        # -- integrity-ring message sweep ----------------------------------
        # Ring on a small slice: the legacy ring pays n messages *per glsn*,
        # so sweep a bounded glsn count to keep smoke runs quick.
        glsns = store.glsns[: min(64, len(store.glsns))]
        n = len(store.stores)

        legacy_net = SimNetwork()
        legacy = run_integrity_round(store, glsns=glsns, net=legacy_net)
        batched_net = SimNetwork()
        batched = run_batched_integrity_round(store, glsns=glsns, net=batched_net)
        combined_net = SimNetwork()
        combined = run_combined_integrity_round(store, glsns=glsns, net=combined_net)

        assert batched == legacy  # identical verdicts
        assert combined.ok and combined.mode == "combined"
        # The acceptance bar: batched/combined rings are O(nodes) messages.
        assert batched_net.stats.messages == n
        assert combined_net.stats.messages == n
        assert legacy_net.stats.messages == n * len(glsns)

        results["ring"] = {
            "nodes": n,
            "glsns": len(glsns),
            "legacy_messages": legacy_net.stats.messages,
            "batched_messages": batched_net.stats.messages,
            "combined_messages": combined_net.stats.messages,
            "legacy_bytes": legacy_net.stats.bytes,
            "batched_bytes": batched_net.stats.bytes,
            "combined_bytes": combined_net.stats.bytes,
        }
        print_rows(
            f"P3: integrity ring over {len(glsns)} glsns, {n} nodes",
            ["mode", "messages", "bytes"],
            [
                ("per-glsn (legacy)", legacy_net.stats.messages, legacy_net.stats.bytes),
                ("batched", batched_net.stats.messages, batched_net.stats.bytes),
                ("combined", combined_net.stats.messages, combined_net.stats.bytes),
            ],
        )

        results["cache_stats"] = cache_stats_snapshot()
        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")

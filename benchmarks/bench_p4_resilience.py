"""Experiment P4: cost and coverage of the resilience layer.

Measures what ``repro.resilience`` buys and what it costs:

* **Overhead at drop_rate=0.**  The same audit query executed on a plain
  network vs a reliable one (acks, ids, dedup) with zero faults — the
  ISSUE's acceptance bar is < 3% wall-clock overhead.
* **Fault sweep.**  One audit query + one batched integrity ring per
  fault point (drop 0 → 0.2, plus duplication and a single partitioned
  node), recording retry/failover counters and whether the answer was
  full, degraded, or a typed failure.  Results asserted equal to the
  fault-free baseline whenever a run completes undegraded.

Writes ``BENCH_p4.json`` at the repo root.

Environment knobs (for CI smoke runs on tiny machines):

- ``REPRO_BENCH_ROWS``          log size                    (default 400)
- ``REPRO_BENCH_MAX_OVERHEAD``  drop_rate=0 ceiling asserted (default 0.03)
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import print_rows
from repro.audit.executor import QueryExecutor
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.errors import ReproError
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.logstore.integrity import run_batched_integrity_round
from repro.net.faults import FaultPlan
from repro.net.simnet import SimNetwork
from repro.resilience import RetryPolicy
from repro.smc.base import SmcContext

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "400"))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_OVERHEAD", "0.03"))
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_p4.json"

CRITERION = "C1 > 30 AND C3 = 'bank'"

FAULT_POINTS = [
    {"drop_rate": 0.0},
    {"drop_rate": 0.05},
    {"drop_rate": 0.1},
    {"drop_rate": 0.2},
    {"duplicate_rate": 0.3},
    {"drop_rate": 0.1, "duplicate_rate": 0.2},
]


def _rows(count: int) -> list[dict]:
    rnd = random.Random(41)
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
    authority = TicketAuthority(b"p4-bench-master-secret-012345678")
    store = DistributedLogStore(
        plan,
        authority,
        AccumulatorParams.generate(128, DeterministicRng(b"p4-acc")),
    )
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    store.append_batch(_rows(rows), ticket)
    return store, schema


def _executor(store, schema) -> QueryExecutor:
    # A fresh context per run: no cross-run cache reuse, clean ledgers.
    executor = QueryExecutor(
        store, SmcContext(shared_prime(64), DeterministicRng(b"p4-smc")), schema
    )
    return executor


def _best_of(fn, repeats: int = 10) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestResilienceCost:
    def test_overhead_and_fault_sweep(self):
        store, schema = _build(ROWS)
        results: dict = {
            "experiment": "P4",
            "rows": ROWS,
            "criterion": CRITERION,
            "max_overhead_asserted": MAX_OVERHEAD,
        }

        baseline = _executor(store, schema).execute(CRITERION)

        # -- overhead at drop_rate = 0 -------------------------------------
        def run_plain():
            return _executor(store, schema).execute(CRITERION, net=SimNetwork())

        def run_reliable():
            return _executor(store, schema).execute(
                CRITERION, net=SimNetwork(resilience=RetryPolicy())
            )

        assert run_reliable().glsns == baseline.glsns
        run_plain()  # warm both paths before timing
        t_plain = _best_of(run_plain)
        t_reliable = _best_of(run_reliable)
        overhead = t_reliable / t_plain - 1.0
        results["overhead"] = {
            "plain_ms": round(t_plain * 1e3, 3),
            "reliable_ms": round(t_reliable * 1e3, 3),
            "overhead_pct": round(overhead * 100, 2),
        }
        print_rows(
            f"P4: {CRITERION!r} over {ROWS} rows, zero faults",
            ["network", "best ms", "overhead"],
            [
                ("plain", f"{t_plain * 1e3:.2f}", "—"),
                ("reliable", f"{t_reliable * 1e3:.2f}", f"{overhead * 100:+.1f}%"),
            ],
        )
        assert overhead < MAX_OVERHEAD, (
            f"resilience costs {overhead:.1%} at drop_rate=0, "
            f"ceiling is {MAX_OVERHEAD:.0%}"
        )

        # -- fault sweep ----------------------------------------------------
        sweep = []
        table = []
        for spec in FAULT_POINTS:
            label = ",".join(f"{k.split('_')[0]}={v}" for k, v in spec.items())
            net = SimNetwork(
                resilience=RetryPolicy(),
                faults=FaultPlan(rng=DeterministicRng(label.encode()), **spec),
            )
            outcome = "ok"
            try:
                result = _executor(store, schema).execute(CRITERION, net=net)
                assert result.glsns == baseline.glsns
            except ReproError as exc:
                outcome = f"typed_failure:{type(exc).__name__}"
            entry = {
                "faults": spec,
                "outcome": outcome,
                "retries": net.resilience_stats["retries"],
                "duplicates_dropped": net.resilience_stats["duplicates_dropped"],
                "failovers": net.resilience_stats.get("failovers", 0),
                "delivery_failed": net.resilience_stats["delivery_failed"],
            }
            sweep.append(entry)
            table.append(
                (label, outcome, entry["retries"], entry["failovers"])
            )
        results["query_sweep"] = sweep
        print_rows(
            "P4: audit query under injected faults",
            ["faults", "outcome", "retries", "failovers"],
            table,
        )
        # The acceptance grid (drop_rate <= 0.2, no partition) must always
        # produce the correct full answer.
        assert all(e["outcome"] == "ok" for e in sweep)

        # -- single partitioned node: integrity ring degrades explicitly ---
        victim = sorted(store.stores)[2]
        faults = FaultPlan()
        faults.crash(victim)
        net = SimNetwork(resilience=RetryPolicy(), faults=faults)
        glsns = store.glsns[: min(32, len(store.glsns))]
        reports = run_batched_integrity_round(store, glsns=glsns, net=net)
        assert all(not r.ok and not r.verified for r in reports)
        assert all(r.skipped_nodes == (victim,) for r in reports)
        results["partitioned_node"] = {
            "victim": victim,
            "glsns": len(glsns),
            "verified": False,
            "skipped_nodes": [victim],
            "failovers": net.resilience_stats.get("failovers", 0),
            "retries": net.resilience_stats["retries"],
        }
        print_rows(
            f"P4: batched integrity ring with {victim} partitioned",
            ["glsns", "verified", "skipped", "failovers"],
            [(len(glsns), "no (explicit)", victim,
              net.resilience_stats.get("failovers", 0))],
        )

        # And with the partition healed, the same ring verifies fully.
        faults.recover(victim)
        healed_net = SimNetwork(resilience=RetryPolicy(), faults=faults)
        healed = run_batched_integrity_round(store, glsns=glsns, net=healed_net)
        assert all(r.ok and r.verified for r in healed)

        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")

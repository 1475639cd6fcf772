"""Experiment P5: audit-query throughput under the concurrent scheduler.

Measures what ``repro.sched`` buys on a mixed workload of 8 concurrent
queries and what its machinery costs when concurrency is 1:

* **Throughput.**  The same 8-query mix executed serially
  (``service.query`` in a loop) vs through ``service.query_many`` at
  concurrency 8 on an identically-seeded twin deployment.  The
  acceptance bar is >= 3x queries/sec; every concurrent result is
  asserted equal, query by query, to its serial counterpart.  The mix
  repeats one criterion and shares an expensive ``C1 > C5`` cross-anchor
  predicate between two *distinct* criteria, so the speedup decomposes
  into whole-query fan-out plus subplan-level single-flight sharing —
  the big-int SMC rounds hold the GIL, so overlap alone buys ~nothing.
* **Latency under load.**  p50/p95 per-query latency from the handles'
  submit-to-resolve clocks during the concurrent run.
* **Scheduler overhead.**  Distinct queries pushed one at a time through
  a ``max_inflight=1``, coalescing-off scheduler vs plain
  ``service.query`` — the task-and-handle machinery must cost < 5%
  wall-clock.

Writes ``BENCH_p5.json`` at the repo root.

Environment knobs (for CI smoke runs on tiny machines):

- ``REPRO_BENCH_ROWS``          log size                     (default 120)
- ``REPRO_BENCH_MIN_SPEEDUP``   throughput bar asserted      (default 3.0)
- ``REPRO_BENCH_MAX_OVERHEAD``  concurrency-1 ceiling        (default 0.05)
- ``REPRO_BENCH_CONCURRENCY``   in-flight bound for the mix  (default 8)

Run directly with ``python benchmarks/bench_p5_throughput.py [--smoke]``;
``--smoke`` applies tiny-machine knobs (fewer rows, relaxed bars).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # direct execution: make repo-root imports work
    for _extra in (str(_ROOT), str(_ROOT / "src")):
        if _extra not in sys.path:
            sys.path.insert(0, _extra)

from benchmarks.conftest import print_rows
from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.sched import QueryScheduler

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "120"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_OVERHEAD", "0.05"))
CONCURRENCY = int(os.environ.get("REPRO_BENCH_CONCURRENCY", "8"))
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_p5.json"

# Two distinct SMC-heavy queries sharing the C1 > C5 cross predicate,
# one cheap pure-local query, mixed with repeats: 8 queries total.
QUERY_A = "C1 > C5 and C3 = 'bank'"
QUERY_B = "C1 > C5 and C2 < 400"
QUERY_C = "C3 = 'bank' or C3 = 'salary'"
MIX = [QUERY_A, QUERY_B, QUERY_A, QUERY_C, QUERY_A, QUERY_B, QUERY_A, QUERY_B]

OVERHEAD_QUERIES = [QUERY_A, QUERY_B, QUERY_C]


def _build(rows: int) -> ConfidentialAuditingService:
    """One deployment; identical seeds => identical twin services."""
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=64,
        rng=DeterministicRng(b"p5-bench"),
    )
    ticket = service.register_user("p5-bench")
    for i in range(rows):
        service.log_event(
            {
                "Time": f"2004-01-{i % 28 + 1:02d}",
                "id": f"u{i % 5}",
                "EID": i,
                "Tid": f"t{i}",
                "protocl": "tcp",
                "ip": f"10.0.0.{i % 7}",
                "C": i % 3,
                "C1": (i * 13) % 100,
                "C2": (i * 29) % 1000,
                "C3": ["bank", "salary", "shop"][i % 3],
                "C4": i % 2,
                "C5": i,
            },
            ticket,
        )
    return service


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestSchedulerThroughput:
    def test_throughput_latency_and_overhead(self):
        results: dict = {
            "experiment": "P5",
            "rows": ROWS,
            "mix": MIX,
            "concurrency": CONCURRENCY,
            "min_speedup_asserted": MIN_SPEEDUP,
            "max_overhead_asserted": MAX_OVERHEAD,
        }

        # -- throughput: serial loop vs query_many on a twin ---------------
        serial_svc = _build(ROWS)
        start = time.perf_counter()
        serial = [serial_svc.query(c) for c in MIX]
        t_serial = time.perf_counter() - start

        conc_svc = _build(ROWS)
        start = time.perf_counter()
        with QueryScheduler(conc_svc, max_inflight=CONCURRENCY) as sched:
            handles = [sched.submit(c) for c in MIX]
            concurrent = sched.gather(handles)
        t_conc = time.perf_counter() - start

        # Exact per-query equality with the serial ground truth.
        for i, (s, c) in enumerate(zip(serial, concurrent)):
            assert s.glsns == c.glsns, f"query #{i} ({MIX[i]!r}) diverged"
            assert s.subquery_glsns == c.subquery_glsns, f"query #{i}"
            assert s.count == c.count

        speedup = t_serial / t_conc
        latencies = [h.latency for h in handles]
        coalesced = sum(1 for h in handles if h.coalesced)
        results["throughput"] = {
            "serial_s": round(t_serial, 3),
            "concurrent_s": round(t_conc, 3),
            "speedup": round(speedup, 2),
            "serial_qps": round(len(MIX) / t_serial, 2),
            "concurrent_qps": round(len(MIX) / t_conc, 2),
            "queries_coalesced": coalesced,
            "coalesce_stats": sched.coalesce_stats(),
        }
        results["latency_under_load"] = {
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 1),
            "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 1),
            "max_ms": round(max(latencies) * 1e3, 1),
        }
        print_rows(
            f"P5: {len(MIX)} mixed queries over {ROWS} rows",
            ["mode", "wall s", "q/s", "p50 ms", "p95 ms"],
            [
                ("serial loop", f"{t_serial:.2f}", f"{len(MIX) / t_serial:.2f}",
                 "—", "—"),
                (f"sched x{CONCURRENCY}", f"{t_conc:.2f}",
                 f"{len(MIX) / t_conc:.2f}",
                 f"{_percentile(latencies, 0.5) * 1e3:.0f}",
                 f"{_percentile(latencies, 0.95) * 1e3:.0f}"),
            ],
        )
        assert speedup >= MIN_SPEEDUP, (
            f"concurrent throughput is {speedup:.2f}x serial, "
            f"bar is {MIN_SPEEDUP:.1f}x"
        )

        # -- overhead at concurrency 1 -------------------------------------
        # Coalescing off: every query recomputes, so the comparison times
        # the task-and-handle machinery itself, not cache hits.
        base_svc = _build(ROWS)

        def run_serial():
            for criterion in OVERHEAD_QUERIES:
                base_svc.query(criterion)

        sched_svc = _build(ROWS)
        one = QueryScheduler(sched_svc, max_inflight=1, coalesce=False)
        try:

            def run_scheduled():
                for criterion in OVERHEAD_QUERIES:
                    one.submit(criterion).result(timeout=300)

            run_serial()  # warm both paths before timing
            run_scheduled()
            t_plain = _best_of(run_serial)
            t_sched = _best_of(run_scheduled)
        finally:
            one.shutdown()
        overhead = t_sched / t_plain - 1.0
        results["overhead_at_1"] = {
            "plain_ms": round(t_plain * 1e3, 1),
            "scheduled_ms": round(t_sched * 1e3, 1),
            "overhead_pct": round(overhead * 100, 2),
        }
        print_rows(
            "P5: scheduler machinery cost at concurrency 1 (coalesce off)",
            ["path", "best ms", "overhead"],
            [
                ("service.query", f"{t_plain * 1e3:.1f}", "—"),
                ("scheduler x1", f"{t_sched * 1e3:.1f}",
                 f"{overhead * 100:+.1f}%"),
            ],
        )
        assert overhead < MAX_OVERHEAD, (
            f"scheduler costs {overhead:.1%} at concurrency 1, "
            f"ceiling is {MAX_OVERHEAD:.0%}"
        )

        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str]) -> int:
    import pytest

    if "--smoke" in argv:
        os.environ.setdefault("REPRO_BENCH_ROWS", "48")
        os.environ.setdefault("REPRO_BENCH_MIN_SPEEDUP", "2.0")
        os.environ.setdefault("REPRO_BENCH_MAX_OVERHEAD", "0.25")
    return pytest.main([__file__, "-q", "-s"])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Experiment P5: audit-query throughput through the query scheduler.

Measures what ``repro.sched`` buys on a mixed burst of 8 queries and what
its machinery costs on queries that share nothing:

* **Throughput.**  The same 8-query mix executed serially
  (``service.query`` in a loop on a service built with
  ``REPRO_SCHED_COALESCE=off``, so every query pays its own rounds) vs
  one ``submit``/``gather`` burst through a scheduler on an
  identically-seeded twin deployment.  The acceptance bar is >= 3x
  queries/sec; every scheduled result is asserted equal, query by query,
  to its serial counterpart.  The mix repeats one criterion and shares an
  expensive ``C1 > C5`` cross-anchor predicate between two *distinct*
  criteria, so the speedup decomposes into whole-query fan-out plus
  sub-plan sharing — the scheduler runs one query at a time, so there is
  no overlap to buy anything else.  The same serial loop on a default service, whose sync
  queries reuse equal-epoch cross predicates from the service's
  sub-plan memo, is reported beside it (not gated).
* **Latency under load.**  p50/p95 per-query latency from the handles'
  submit-to-resolve clocks during the burst.
* **Scheduler overhead.**  Distinct queries pushed one at a time through
  a coalescing-off scheduler vs plain ``service.query`` on a
  coalescing-off service — the queue-and-handle machinery must cost < 5%
  wall-clock.

Writes ``BENCH_p5.json`` at the repo root.

Environment knobs (for CI smoke runs on tiny machines):

- ``REPRO_BENCH_ROWS``          log size                     (default 120)
- ``REPRO_BENCH_MIN_SPEEDUP``   throughput bar asserted      (default 3.0)
- ``REPRO_BENCH_MAX_OVERHEAD``  one-at-a-time ceiling        (default 0.05)

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
from repro.sched import COALESCE_ENV_VAR, QueryScheduler

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "120"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_OVERHEAD", "0.05"))
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


def _build_unshared(monkeypatch, rows: int) -> ConfidentialAuditingService:
    """A twin whose queries share nothing: every one runs its own rounds."""
    with monkeypatch.context() as env:
        env.setenv(COALESCE_ENV_VAR, "off")
        return _build(rows)


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
    def test_throughput_latency_and_overhead(self, monkeypatch):
        results: dict = {
            "experiment": "P5",
            "rows": ROWS,
            "mix": MIX,
            "min_speedup_asserted": MIN_SPEEDUP,
            "max_overhead_asserted": MAX_OVERHEAD,
        }

        # -- throughput: serial loop vs query_many on a twin ---------------
        serial_svc = _build_unshared(monkeypatch, ROWS)
        start = time.perf_counter()
        serial = [serial_svc.query(c) for c in MIX]
        t_serial = time.perf_counter() - start

        memo_svc = _build(ROWS)
        start = time.perf_counter()
        memo_serial = [memo_svc.query(c) for c in MIX]
        t_memo = time.perf_counter() - start
        assert [r.glsns for r in memo_serial] == [r.glsns for r in serial]

        conc_svc = _build(ROWS)
        start = time.perf_counter()
        with QueryScheduler(conc_svc) as sched:
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
            "serial_memo_qps": round(len(MIX) / t_memo, 2),
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
                ("serial + memo", f"{t_memo:.2f}", f"{len(MIX) / t_memo:.2f}",
                 "—", "—"),
                ("sched burst", f"{t_conc:.2f}",
                 f"{len(MIX) / t_conc:.2f}",
                 f"{_percentile(latencies, 0.5) * 1e3:.0f}",
                 f"{_percentile(latencies, 0.95) * 1e3:.0f}"),
            ],
        )
        assert speedup >= MIN_SPEEDUP, (
            f"concurrent throughput is {speedup:.2f}x serial, "
            f"bar is {MIN_SPEEDUP:.1f}x"
        )

        # -- overhead, one query at a time ---------------------------------
        # Coalescing off on both paths: every query recomputes, so the
        # comparison times the queue-and-handle machinery itself, not cache
        # hits.
        base_svc = _build_unshared(monkeypatch, ROWS)

        def run_serial():
            for criterion in OVERHEAD_QUERIES:
                base_svc.query(criterion)

        sched_svc = _build(ROWS)
        one = QueryScheduler(sched_svc, coalesce=False)
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
            "P5: scheduler machinery cost, one query at a time (coalesce off)",
            ["path", "best ms", "overhead"],
            [
                ("service.query", f"{t_plain * 1e3:.1f}", "—"),
                ("scheduler", f"{t_sched * 1e3:.1f}",
                 f"{overhead * 100:+.1f}%"),
            ],
        )
        assert overhead < MAX_OVERHEAD, (
            f"scheduler costs {overhead:.1%} one query at a time, "
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

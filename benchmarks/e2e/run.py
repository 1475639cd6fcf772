"""Run the end-to-end benchmark.

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
  is the ``BENCHMARK.json`` command: one workload, one seed, one process.  The
  last line of standard output is one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
  it is the detailed result: the same plus the raw wall-clock values, the
  machine-speed factor, sample counts and the effective configuration.
* ``python -m benchmarks.e2e.run [--seeds 1,2] [--traced] [--smoke]`` runs
  every workload that way (one child process each, so peak memory is per
  workload), prints every metric by name with unit and sample count, writes
  one JSON report for :mod:`benchmarks.e2e.compare`, and exits non-zero if
  any answer disagreed with the oracle.

Every ``REPRO_*`` variable is removed from the environment before ``repro``
is imported, so what is measured is the shipped defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __name__ == "__main__" and not __package__:
    # Run as a script: sys.path[0] is this directory; make it the repo root.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

WORKLOAD_NAMES = (
    "cross_audit", "local_scan", "burst_mixed", "ingest_recover", "integrity_sweep",
)
SETUP_REPEATS = 3
OUT_DIR = HERE / "out"
WORK_DIR = HERE / ".work"


def scrub_environment() -> list[str]:
    """Drop every ``REPRO_*`` knob; returns the names that were set."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def _measure(workload, rec, seconds: float, log=None):
    """Whole rounds until ``seconds`` have passed (at least one).

    Returns the rounds' time windows and the workload's counters before the
    first round and after each one.
    """
    windows, counters = [], [workload.counters()]
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        if log is None:
            workload.round(rec)
        else:
            with log.span("bench.round"):
                workload.round(rec)
        windows.append((start, time.perf_counter()))
        workload.round_index += 1
        counters.append(workload.counters())
        if time.perf_counter() - begin >= seconds:
            return windows, counters


def _cache_counts() -> dict:
    from repro.cache import cache_stats_snapshot

    counts = {"scan": [0, 0], "projection": [0, 0]}
    for name, row in cache_stats_snapshot().items():
        kind = name.rsplit(".", 1)[-1]
        if name.split(".")[0] in ("query", "sched") and kind in counts:
            counts[kind][0] += row["hits"]
            counts[kind][1] += row["misses"]
    return counts


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _layer_metrics(workload, rec, reference, log, windows, counters, caches) -> dict:
    """The per-layer metrics of one traced run.

    Times are self seconds per round (mean over the traced rounds); counts
    are those of the first traced round, so they repeat exactly for a seed
    however many rounds fit in the run; ratios are over the whole phase.
    """
    rounds = len(windows)
    speed = rec.speed.factor()
    whole = log.totals()
    first = log.totals(window=windows[0])
    delta = {key: counters[1][key] - counters[0][key] for key in counters[0]}
    ratios = workload.ratios()

    def per_round(*prefixes: str) -> float:
        return sum(whole.self_s(prefix) for prefix in prefixes) / rounds * speed

    scan = [after - before for before, after in zip(caches[0]["scan"], caches[1]["scan"])]
    projection = [
        after - before
        for before, after in zip(caches[0]["projection"], caches[1]["projection"])
    ]
    rows_examined = (scan[1] + projection[1]) * len(workload.oracle.rows)
    modexps = whole.units("perf.pow_many")
    traced_wall = sum(end - start for start, end in windows)
    all_self = sum(row[2] for row in whole.by_name.values())
    per_unit = rec.busy_s / rec.units * speed
    per_unit_untraced = reference.busy_s / reference.units * reference.speed.factor()
    return {
        "crypto.modexp_count": (delta["modexp"], "count"),
        "crypto.modexp_online_count": (delta["modexp"] - delta["modexp_offline"], "count"),
        "crypto.modexp_offline_count": (delta["modexp_offline"], "count"),
        "crypto.modexp_predicted": (delta["modexp_predicted"], "count"),
        "crypto.ph_encrypt_s": (per_round("crypto.ph_encrypt"), "s"),
        "crypto.hash_encode_s": (per_round("crypto.hash_encode"), "s"),
        "crypto.accumulator_s": (per_round("crypto.accumulator"), "s"),
        "crypto.ticket_verify_s": (per_round("crypto.ticket_verify"), "s"),
        "perf.pow_many_s": (per_round("perf.pow_many"), "s"),
        "perf.pow_many_calls": (
            first.calls("perf.pow_many.serial") + first.calls("perf.pow_many.process"),
            "count",
        ),
        "perf.pool_dispatch_share": (
            whole.units("perf.pow_many.process") / modexps if modexps else 0.0,
            "ratio",
        ),
        "perf.us_per_modexp": (
            whole.self_s("perf.pow_many") / modexps * 1e6 * speed if modexps else 0.0,
            "us",
        ),
        "smc.intersection_s": (per_round("smc.intersection"), "s"),
        "smc.intersection_elements": (first.units("smc.intersection"), "count"),
        "smc.compare_s": (per_round("smc.compare"), "s"),
        "smc.compare_pairs": (first.units("smc.compare"), "count"),
        "smc.union_s": (per_round("smc.union"), "s"),
        "smc.leakage_events": (delta["leakage_events"], "count"),
        "cluster.sign_s": (per_round("cluster.sign"), "s"),
        "precompute.hit_ratio": (ratios["precompute.hit_ratio"], "ratio"),
        "precompute.warm_s": (per_round("precompute.warm"), "s"),
        "net.messages": (first.calls("net.send"), "count"),
        "net.messages_predicted": (delta["messages_predicted"], "count"),
        "net.bytes": (first.units("net.send"), "bytes"),
        "net.codec_s": (per_round("net.codec"), "s"),
        "net.transport_s": (per_round("net.transport", "net.send"), "s"),
        "sched.queue_wait_p50_s": (ratios.get("sched.queue_wait_p50_s", 0.0), "s"),
        "sched.run_p50_s": (ratios.get("sched.run_p50_s", 0.0), "s"),
        "sched.coalesce_hit_ratio": (ratios.get("sched.coalesce_hit_ratio", 0.0), "ratio"),
        "sched.coalesced_share": (ratios.get("sched.coalesced_share", 0.0), "ratio"),
        "sched.gather_wait_s": (per_round("sched.gather"), "s"),
        "cache.scan_hit_ratio": (_ratio(*scan), "ratio"),
        "cache.projection_hit_ratio": (_ratio(*projection), "ratio"),
        "audit.plan_s": (per_round("audit.plan"), "s"),
        "audit.scan_s": (per_round("audit.execute", "cache.get_or_compute"), "s"),
        "audit.rows_examined_per_result": (
            rows_examined / rec.result_rows if rec.result_rows else 0.0,
            "ratio",
        ),
        "obs.observe_s": (per_round("obs.observe"), "s"),
        "core.self_s": (per_round("core.service"), "s"),
        "logstore.append_s": (per_round("logstore.append", "store.append_batch"), "s"),
        "logstore.integrity_ring_s": (per_round("logstore.integrity_ring"), "s"),
        "store.wal_append_s": (per_round("store.wal_append"), "s"),
        "store.wal_sync_s": (per_round("store.wal_sync"), "s"),
        "store.wal_bytes": (ratios.get("store.wal_bytes", 0.0), "bytes"),
        "store.checkpoint_s": (per_round("store.checkpoint"), "s"),
        "store.replay_s": (per_round("store.replay", "store.open"), "s"),
        "store.recovery_audit_s": (per_round("store.recovery_audit"), "s"),
        "store.bytes_per_user_byte": (ratios.get("store.bytes_per_user_byte", 0.0), "ratio"),
        "bench.harness_s": (per_round("bench", "sched.submit", "sched.standing"), "s"),
        "bench.round_s": (traced_wall / rounds * speed, "s"),
        "bench.self_time_coverage": (all_self / traced_wall, "ratio"),
        "obs.trace_overhead_pct": ((per_unit / per_unit_untraced - 1.0) * 100.0, "%"),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    spans_out: str | None = None,
) -> dict:
    """One run of one workload in this process; returns the detailed result."""
    scrubbed = scrub_environment()
    from repro.perf.engine import shutdown_shared_pool

    from benchmarks.e2e.layers import Tracing
    from benchmarks.e2e.workloads import WORKLOADS, Recorder

    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up, several times over: each is a cold deployment (the pool of
        # worker processes is torn down in between) ending in a warm-up
        # operation.  The last one is kept and measured.
        setups, setups_raw = [], []
        repeats = 1 if trace or smoke else SETUP_REPEATS
        for attempt in range(repeats):
            workload = WORKLOADS[name](seed, smoke, workdir)
            gauge = workload.gauge  # read during the set-up as well
            gauge.read(force=True)
            start, spent = time.perf_counter(), gauge.spent_s
            workload.setup()
            setups_raw.append(
                time.perf_counter() - start - (gauge.spent_s - spent)
            )
            gauge.read(force=True)
            setups.append(setups_raw[-1] * gauge.factor())
            if attempt < repeats - 1:
                workload.teardown()
                shutdown_shared_pool()

        rec = Recorder()
        layer = None
        if not trace:
            windows, _ = _measure(workload, rec, seconds)
        else:
            # A quarter of the run untraced, as the reference the tracing
            # overhead is measured against; the rest under the wrappers.
            reference = Recorder()
            _measure(workload, reference, seconds / 4)
            caches = [_cache_counts()]
            with Tracing() as log:
                windows, counters = _measure(workload, rec, seconds * 3 / 4, log)
            caches.append(_cache_counts())
            layer = _layer_metrics(
                workload, rec, reference, log, windows, counters, caches
            )
            rec.failed += reference.failed
            rec.attempted += reference.attempted
            rec.failures += reference.failures
            if spans_out:
                log.write_jsonl(spans_out)
        config = workload.config()
        workload.teardown()
        shutdown_shared_pool()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    # Timings are reported at the reference machine speed (see machine.py);
    # the raw wall-clock values and the factor go into the detailed result.
    factor = rec.speed.factor()
    latencies = sorted(rec.latencies)
    end_to_end = {
        "latency_p50_s": (statistics.median(latencies) * factor, "s"),
        "throughput_per_s": (rec.units / rec.busy_s / factor, "1/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    supplementary = {
        "error_rate": rec.failed / rec.attempted,
        "rounds": len(windows),
        "latency_samples": len(latencies),
        "setup_samples": len(setups),
        "measured_s": sum(end - start for start, end in windows),
        "machine_speed_factor": factor,
        "machine_speed_readings": len(rec.speed.readings),
        "raw_latency_p50_s": statistics.median(latencies),
        "raw_throughput_per_s": rec.units / rec.busy_s,
        "raw_setup_s": statistics.median(setups_raw),
    }
    singles = sorted(rec.singles or rec.latencies)
    if len(singles) >= 200:
        # p95 only where at least ten samples lie beyond it.
        supplementary["latency_p95_s"] = singles[int(len(singles) * 0.95)] * factor
        supplementary["latency_p95_samples"] = len(singles)
    config.update(
        {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "scrubbed_env": scrubbed,
        }
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures[:5],
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in (layer if trace else end_to_end).items()
        },
        "supplementary": supplementary,
        "config": config,
    }


def _run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload in a child process; returns its detailed result."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        command += ["--spans-out", str(OUT_DIR / f"spans-{name}-{seed}.jsonl")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{name} seed {seed} exited {done.returncode} without a result")
    return json.loads(lines[-2])


def _print_run(detail: dict) -> None:
    extra = detail["supplementary"]
    mode = "traced" if detail["trace"] else "end to end"
    print(
        f"\n== {detail['workload']}  seed {detail['seed']}  {mode}: "
        f"{extra['rounds']} rounds in {extra['measured_s']:.2f} s, "
        f"{detail['attempted']} operations, error_rate {extra['error_rate']:.4f}"
    )
    samples = {
        "latency_p50_s": extra["latency_samples"],
        "setup_s": extra["setup_samples"],
    }
    for metric, cell in detail["metrics"].items():
        note = f"   (n={samples[metric]})" if metric in samples else ""
        print(f"  {metric:34s} {cell['value']:>16.6g} {cell['unit']}{note}")
    if not detail["trace"]:
        print(
            f"  raw wall-clock: latency_p50_s {extra['raw_latency_p50_s']:.6g} s, "
            f"throughput_per_s {extra['raw_throughput_per_s']:.6g} 1/s, "
            f"setup_s {extra['raw_setup_s']:.6g} s; machine_speed_factor "
            f"{extra['machine_speed_factor']:.4f} (n={extra['machine_speed_readings']})"
        )
    if "latency_p95_s" in extra:
        print(
            f"  {'latency_p95_s':34s} {extra['latency_p95_s']:>16.6g} s"
            f"   (n={extra['latency_p95_samples']})"
        )
    metrics = detail["metrics"]
    for measured, predicted in (
        ("crypto.modexp_count", "crypto.modexp_predicted"),
        ("net.messages", "net.messages_predicted"),
    ):
        if measured in metrics:
            got, model = metrics[measured]["value"], metrics[predicted]["value"]
            flag = "" if got == model else "   <-- GAP between measurement and cost model"
            print(f"  {measured}: measured {got}, predicted {model}{flag}")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default 10, or 0.2 with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, seconds 0.2")
    parser.add_argument("--spans-out", help="traced run: write the spans as JSONL")
    parser.add_argument("--seeds", default="1", help="all-workloads mode: 1,2,3")
    parser.add_argument("--traced", action="store_true", help="add a traced run each")
    parser.add_argument("--out", help="all-workloads mode: where the JSON goes")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else 10.0

    if args.workload:
        detail = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            smoke=args.smoke, spans_out=args.spans_out,
        )
        for failure in detail["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        print(json.dumps(detail))
        print(
            json.dumps(
                {key: detail[key] for key in ("correct", "attempted", "failed", "metrics")}
            )
        )
        return 0 if detail["correct"] else 1

    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        for name in WORKLOAD_NAMES:
            for trace in (0, 1) if args.traced else (0,):
                detail = _run_child(name, seed, args.seconds, trace, args.smoke)
                _print_run(detail)
                runs.append(detail)
    out = Path(args.out) if args.out else OUT_DIR / "e2e.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": "e2e/1", "runs": runs}, indent=1))
    wrong = [f"{r['workload']}/seed {r['seed']}" for r in runs if not r["correct"]]
    print(f"\nwrote {out}; " + (f"ORACLE MISMATCH in {wrong}" if wrong else "all answers correct"))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

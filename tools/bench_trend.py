#!/usr/bin/env python3
"""Performance-trajectory report and regression gate for BENCH_*.json.

Stdlib only (CI installs nothing for tooling).  Each experiment commits
its results file at the repo root; this script gives the committed
numbers a memory:

* **default** — print the perf trajectory: one row per experiment with
  its headline metric, so a reviewer sees the repo's performance story
  at a glance without opening five JSON files;
* **--check** — regression gate: compare each headline against the same
  file at a baseline (a git ref, default ``HEAD``, or a directory) and
  exit nonzero if any headline *regressed* beyond tolerance.

Headline units and their regression semantics:

* ``x`` (speedup ratio) and ``rows/s`` (throughput) — higher is better;
  regress when they drop more than ``--tolerance`` (default 10%)
  relative to baseline.
* ``pct`` (overhead percentage points) — lower is better; regress when
  they rise more than ``--slack-points`` (default 5.0) absolute, since
  relative deltas are meaningless around zero overhead.
* ``s`` (wall seconds, P8 recovery) — lower is better; regress when
  they rise more than ``--slack-seconds`` (default 5.0) absolute, since
  sub-second timings make relative gates pure noise.

Experiments present on only one side are reported but never fail the
gate (a new benchmark must not need a baseline to land).

Usage::

    python tools/bench_trend.py                       # trajectory table
    python tools/bench_trend.py --check               # vs git HEAD
    python tools/bench_trend.py --check --baseline-ref origin/main
    python tools/bench_trend.py --check --baseline-dir /path/to/old
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# (file name, experiment, headline label, unit, extractor).  A file may
# contribute more than one headline (P1 carries both the engine speedup
# and the observability propagation-overhead guard; P8 carries both the
# ingest throughput and the recovery-time guard).
# Units: "x" = speedup ratio (higher better), "rows/s" = throughput
# (higher better), "pct" = overhead percentage points (lower better),
# "s" = wall seconds (lower better).
HEADLINES = [
    (
        "BENCH_p1.json",
        "P1 parallel exponentiation",
        "best engine speedup",
        "x",
        lambda d: max(e["speedup"] for e in d["engines"]),
    ),
    (
        "BENCH_p1.json",
        "P1 trace propagation",
        "obs propagation overhead",
        "pct",
        lambda d: d["propagation"]["overhead_pct"],
    ),
    (
        "BENCH_p4.json",
        "P4 fault-tolerant protocols",
        "reliable-delivery overhead",
        "pct",
        lambda d: d["overhead"]["overhead_pct"],
    ),
    (
        "BENCH_p5.json",
        "P5 concurrent scheduler",
        "throughput speedup",
        "x",
        lambda d: d["throughput"]["speedup"],
    ),
    (
        "BENCH_p8.json",
        "P8 durable storage",
        "sustained ingest throughput",
        "rows/s",
        lambda d: d["ingest"]["rows_per_s"],
    ),
    (
        "BENCH_p8.json",
        "P8 crash recovery",
        "WAL-replay recovery time",
        "s",
        lambda d: d["recovery"]["seconds"],
    ),
]

HIGHER_IS_BETTER = {"x", "rows/s"}


def load_current(name: str) -> dict | None:
    path = REPO / name
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def load_baseline(name: str, ref: str, directory: str | None) -> dict | None:
    if directory is not None:
        path = Path(directory) / name
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))
    proc = subprocess.run(
        ["git", "-C", str(REPO), "show", f"{ref}:{name}"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:  # file absent at that ref
        return None
    return json.loads(proc.stdout)


def headline(extractor, data: dict) -> float | None:
    try:
        return float(extractor(data))
    except (KeyError, IndexError, TypeError, ValueError):
        return None


def fmt(value: float | None, unit: str) -> str:
    if value is None:
        return "—"
    if unit == "x":
        return f"{value:.2f}x"
    if unit == "rows/s":
        return f"{value:.0f} rows/s"
    if unit == "s":
        return f"{value:.2f} s"
    return f"{value:.2f} pts"


def print_table(rows: list[tuple[str, ...]], headers: tuple[str, ...]) -> None:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regression gate: exit 1 if a headline regressed")
    parser.add_argument("--baseline-ref", default="HEAD",
                        help="git ref holding baseline BENCH files (default HEAD)")
    parser.add_argument("--baseline-dir", default=None,
                        help="directory of baseline BENCH files (overrides the ref)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative drop for speedup headlines (default 0.10)")
    parser.add_argument("--slack-points", type=float, default=5.0,
                        help="allowed absolute rise for percentage headlines (default 5.0)")
    parser.add_argument("--slack-seconds", type=float, default=5.0,
                        help="allowed absolute rise for wall-second headlines (default 5.0)")
    args = parser.parse_args(argv)

    rows = []
    regressions = []
    for name, experiment, label, unit, extractor in HEADLINES:
        current = load_current(name)
        value = headline(extractor, current) if current else None
        if not args.check:
            rows.append((experiment, label, fmt(value, unit)))
            continue

        base = load_baseline(name, args.baseline_ref, args.baseline_dir)
        base_value = headline(extractor, base) if base else None
        verdict = "ok"
        if value is None or base_value is None:
            verdict = "skipped (one side missing)"
        elif unit in HIGHER_IS_BETTER:
            if value < base_value * (1.0 - args.tolerance):
                verdict = f"REGRESSED >{args.tolerance:.0%}"
                regressions.append((name, label, base_value, value, unit))
        elif unit == "s":  # lower-is-better wall seconds
            if value > base_value + args.slack_seconds:
                verdict = f"REGRESSED >{args.slack_seconds:g} s"
                regressions.append((name, label, base_value, value, unit))
        else:  # lower-is-better percentage points
            if value > base_value + args.slack_points:
                verdict = f"REGRESSED >{args.slack_points:g} pts"
                regressions.append((name, label, base_value, value, unit))
        rows.append((
            experiment, label, fmt(base_value, unit), fmt(value, unit), verdict,
        ))

    if args.check:
        print_table(rows, ("experiment", "headline", "baseline", "current", "verdict"))
        for name, label, base_value, value, unit in regressions:
            print(
                f"\nFAIL {name}: {label} regressed "
                f"{fmt(base_value, unit)} -> {fmt(value, unit)}",
                file=sys.stderr,
            )
        return 1 if regressions else 0

    print_table(rows, ("experiment", "headline", "value"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

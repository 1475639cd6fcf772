"""Compare two reports of :mod:`benchmarks.e2e.run` metric by metric.

``python -m benchmarks.e2e.compare A.json [B.json]``

For every (workload, end-to-end metric) it prints the median of each side
over its runs (use ``run --seeds 1,2,...`` for several), each side's
run-to-run spread (inter-quartile range over the median, as
``statistics.quantiles(values, n=4)`` gives it), how much worse B's median is
than A's, and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``ok``         — B's median is not worse than A's by more than the bound;
* ``regressed``  — it is;
* ``unresolved`` — a side's spread exceeds the bound, so a shift of that
  size cannot be told from noise — unless every run of B beats every run of
  A, which reads ``ok``.

Per-layer metrics (traced runs) have no bound and are listed with their
change only.  With one file, it prints that file's medians and spreads.
Exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> dict:
    """``(workload, metric, traced) -> [value per run]``."""
    values = defaultdict(list)
    for run in json.loads(Path(path).read_text())["runs"]:
        for metric, cell in run["metrics"].items():
            values[run["workload"], metric, run["trace"]].append(cell["value"])
    return values


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 for a single run)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """``(how much worse B's median is, as a share of A's; verdict)``."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if max(spread(a), spread(b)) > bound:
        wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return worse, "ok" if wins else "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    contract = json.loads(CONTRACT.read_text())
    bounded = {m["name"]: m for m in contract["end_to_end"]}
    a = load(argv[0])
    b = load(argv[1]) if len(argv) == 2 else a
    regressed = False
    print(
        f"{'workload':16s} {'metric':32s} {'A median':>12s} {'B median':>12s} "
        f"{'worse by':>9s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict"
    )
    for key in sorted(set(a) & set(b), key=lambda k: (k[2], k[0], k[1])):
        workload, metric, traced = key
        row = (
            f"{workload:16s} {metric:32s} {statistics.median(a[key]):12.6g} "
            f"{statistics.median(b[key]):12.6g} "
        )
        if traced or metric not in bounded:
            base = statistics.median(a[key])
            change = (statistics.median(b[key]) - base) / abs(base) if base else 0.0
            print(row + f"{change:+9.1%} {spread(a[key]):9.1%} {spread(b[key]):9.1%}")
            continue
        spec = bounded[metric]
        worse, word = verdict(a[key], b[key], spec["better"], spec["bound"])
        regressed |= word == "regressed"
        print(
            row + f"{worse:+9.1%} {spread(a[key]):9.1%} {spread(b[key]):9.1%} "
            f"{spec['bound']:6.0%}  {word}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

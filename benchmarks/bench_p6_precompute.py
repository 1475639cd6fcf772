"""Experiment P6: the offline/online phase split (repro.precompute).

Measures what correlated-randomness pools buy at query time and what
their machinery costs when they cannot help:

* **Online-phase latency.**  A fixed mix of all six SMC protocol
  setups plus blind-signature enrolment, run three ways on identically
  seeded twins: *warm* (pools filled offline), *disabled* (kill switch,
  the exact pre-split inline path), and *empty* (pools enabled but never
  filled).  The manager's per-kind online ledger times exactly the
  draw-or-compute setup step — the paper-standard offline/online
  request-latency metric.  The acceptance bar is a >= 2x cut of total
  online-phase time, with a per-protocol-kind breakdown.
* **Cold-path overhead.**  End-to-end wall-clock of the *empty* run
  must stay within 5% of the *disabled* run: a dry pool may only cost a
  dictionary probe per draw.

Correctness is asserted inline: every protocol's result values must be
identical across the three modes (the split may re-label work, never
change answers).

Writes ``BENCH_p6.json`` at the repo root.

Environment knobs (for CI smoke runs on tiny machines):

- ``REPRO_BENCH_REPEATS``       protocol-mix repetitions     (default 24)
- ``REPRO_BENCH_MIN_SPEEDUP``   online-phase bar asserted    (default 2.0)
- ``REPRO_BENCH_MAX_OVERHEAD``  empty-pool ceiling           (default 0.05)
- ``REPRO_BENCH_TRIALS``        best-of-N wall-clock trials  (default 3)

Run directly with ``python benchmarks/bench_p6_precompute.py [--smoke]``;
``--smoke`` applies tiny-machine knobs (fewer repeats, relaxed bars).
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
from repro.cluster.authority import CredentialAuthority
from repro.crypto import DeterministicRng, shared_prime
from repro.crypto.schnorr import SchnorrGroup
from repro.crypto.shamir import ShamirScheme
from repro.precompute import (
    PrecomputeConfig,
    PrecomputeManager,
    set_precompute_enabled,
)
from repro.smc import (
    SmcContext,
    secure_compare,
    secure_equality,
    secure_ranking,
    secure_set_intersection,
    secure_set_union,
    secure_sum,
)

REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "24"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_OVERHEAD", "0.05"))
TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "3"))
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_p6.json"

PRIME_BITS = 128  # production-size commutative prime: keygen cost is real
PARTIES = ["P0", "P1", "P2"]
SUM_PRIME = shared_prime(128)  # fixed field => the Shamir pool shape is warmable


def _run_mix(repeats: int, manager: PrecomputeManager) -> list:
    """The protocol mix; returns result values for cross-mode equality."""
    prime = shared_prime(PRIME_BITS)
    group = SchnorrGroup.generate(256, DeterministicRng(b"p6-group"))
    ctx = SmcContext(prime, DeterministicRng(b"p6-ctx"))
    ctx.precompute = manager
    authority = CredentialAuthority(
        group, DeterministicRng(b"p6-ca"), precompute=manager
    )
    outputs = []
    for i in range(repeats):
        outputs.append(secure_set_intersection(
            ctx, {"P0": [i, i + 1], "P1": [i + 1, i + 2], "P2": [i + 1, 9]},
        ).values)
        outputs.append(secure_set_union(
            ctx, {"P0": [i, 1], "P1": [2, i], "P2": [3]},
        ).values)
        outputs.append(secure_sum(
            ctx, {"P0": i, "P1": 2 * i, "P2": 7}, k=2, field_prime=SUM_PRIME,
        ).values)
        outputs.append(secure_equality(
            ctx, ("P0", f"T{i}"), ("P1", f"T{i % 3}"), session=f"eq-{i}",
        ).values)
        outputs.append(secure_compare(
            ctx, ("P0", i), ("P1", 2 * i + 1), session=f"cmp-{i}",
        ).values)
        outputs.append(secure_ranking(
            ctx, {"P0": i, "P1": i + 5, "P2": 2 * i + 1},
            value_bound=1000, group_label=f"rank-{i}",
        ).values)
        token = authority.enroll(f"node-{i}").token
        outputs.append(authority.verify_token(token))
    return outputs


def _manager(warm: bool, repeats: int) -> PrecomputeManager:
    """A manager sized so a warmed run never dips below the watermark."""
    demand = repeats * 3 + 16
    manager = PrecomputeManager(
        rng=DeterministicRng(b"p6-pools"),
        config=PrecomputeConfig(pool_size=demand, low_water=0),
    )
    if warm:
        prime = shared_prime(PRIME_BITS)
        group = SchnorrGroup.generate(256, DeterministicRng(b"p6-group"))
        scheme = ShamirScheme(k=2, n=len(PARTIES), p=SUM_PRIME)
        manager.warm_smc(prime, PARTIES, schemes=[scheme])
        authority_key_y = CredentialAuthority(
            group, DeterministicRng(b"p6-ca")
        ).public_key
        manager.warm_blind(group.p, group.q, group.g, "signer")
        manager.warm_blind(group.p, group.q, group.g, "client-alpha")
        manager.warm_blind(group.p, group.q, authority_key_y, "client-beta")
    return manager


def _mode(name: str, repeats: int, trials: int = 1):
    """Best-of-``trials`` timed runs (standard timeit practice: the min
    wall is the least-noise estimate on a shared machine); returns
    (outputs, online_stats, wall_seconds, mgr) from the fastest trial."""
    best = None
    for _ in range(max(trials, 1)):
        if name == "disabled":
            set_precompute_enabled(False)
        try:
            manager = _manager(warm=(name == "warm"), repeats=repeats)
            start = time.perf_counter()
            outputs = _run_mix(repeats, manager)
            wall = time.perf_counter() - start
        finally:
            if name == "disabled":
                set_precompute_enabled(None)
        if best is None or wall < best[2]:
            best = (outputs, manager.online_stats(), wall, manager)
    return best


class TestOfflineOnlineSplit:
    def test_online_phase_cut_and_cold_path_overhead(self):
        results: dict = {
            "experiment": "P6",
            "repeats": REPEATS,
            "prime_bits": PRIME_BITS,
            "min_speedup_asserted": MIN_SPEEDUP,
            "max_overhead_asserted": MAX_OVERHEAD,
        }

        # -- the three modes on identically seeded twins -------------------
        _mode("disabled", 2)  # untimed priming pass (allocator, int caches)
        warm_out, warm_stats, warm_wall, warm_mgr = _mode(
            "warm", REPEATS, TRIALS
        )
        plain_out, plain_stats, plain_wall, _ = _mode(
            "disabled", REPEATS, TRIALS
        )
        empty_out, empty_stats, empty_wall, _ = _mode("empty", REPEATS, TRIALS)

        assert warm_out == plain_out == empty_out, (
            "pooled and on-demand runs must produce identical results"
        )

        # -- headline: online-phase (draw-or-compute) latency --------------
        warm_online = sum(row["seconds"] for row in warm_stats.values())
        plain_online = sum(row["seconds"] for row in plain_stats.values())
        speedup = plain_online / warm_online if warm_online else float("inf")
        per_kind = {}
        table = []
        for kind in sorted(plain_stats):
            w, p = warm_stats[kind], plain_stats[kind]
            kind_speedup = (
                p["seconds"] / w["seconds"] if w["seconds"] else float("inf")
            )
            hit_rate = w["pooled"] / w["calls"] if w["calls"] else 0.0
            per_kind[kind] = {
                "warm_ms": round(w["seconds"] * 1e3, 3),
                "disabled_ms": round(p["seconds"] * 1e3, 3),
                "speedup": round(kind_speedup, 2),
                "calls": w["calls"],
                "warm_hit_rate": round(hit_rate, 3),
            }
            table.append((
                kind, w["calls"], f"{p['seconds'] * 1e3:.2f}",
                f"{w['seconds'] * 1e3:.2f}", f"{kind_speedup:.1f}x",
                f"{hit_rate:.0%}",
            ))
        results["online_phase"] = {
            "warm_ms": round(warm_online * 1e3, 3),
            "disabled_ms": round(plain_online * 1e3, 3),
            "speedup": round(speedup, 2),
            "per_kind": per_kind,
        }
        print_rows(
            f"P6: online-phase setup latency, {REPEATS} protocol-mix rounds",
            ["kind", "calls", "inline ms", "pooled ms", "speedup", "hits"],
            table,
        )
        assert speedup >= MIN_SPEEDUP, (
            f"warm pools cut online-phase latency {speedup:.2f}x, "
            f"bar is {MIN_SPEEDUP:.1f}x"
        )

        # -- cold-path overhead guard --------------------------------------
        # A dry pool must cost roughly a dict probe per draw: the empty
        # run's end-to-end wall-clock stays within the ceiling of the
        # kill-switch run (both compute everything inline).
        overhead = empty_wall / plain_wall - 1.0
        results["end_to_end"] = {
            "warm_s": round(warm_wall, 3),
            "disabled_s": round(plain_wall, 3),
            "empty_s": round(empty_wall, 3),
            "warm_speedup": round(plain_wall / warm_wall, 2),
            "cold_path_overhead_pct": round(overhead * 100, 2),
        }
        print_rows(
            "P6: end-to-end protocol mix (context; online phase is the claim)",
            ["mode", "wall s", "vs disabled"],
            [
                ("disabled (kill switch)", f"{plain_wall:.3f}", "—"),
                ("warm pools", f"{warm_wall:.3f}",
                 f"{plain_wall / warm_wall:.2f}x faster"),
                ("empty pools", f"{empty_wall:.3f}",
                 f"{overhead * 100:+.1f}%"),
            ],
        )
        assert overhead <= MAX_OVERHEAD, (
            f"enabled-but-empty pools cost {overhead:.1%} end to end, "
            f"ceiling is {MAX_OVERHEAD:.0%}"
        )

        # -- bookkeeping ----------------------------------------------------
        results["pools"] = warm_mgr.pool_snapshot()
        results["offline_ops"] = warm_mgr.offline_ops.snapshot()
        hits = sum(r["hits"] for r in results["pools"].values())
        draws = hits + sum(r["misses"] for r in results["pools"].values())
        results["warm_hit_rate"] = round(hits / draws, 3) if draws else 0.0

        RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def main(argv: list[str]) -> int:
    import pytest

    if "--smoke" in argv:
        os.environ.setdefault("REPRO_BENCH_REPEATS", "8")
        os.environ.setdefault("REPRO_BENCH_MIN_SPEEDUP", "1.5")
        os.environ.setdefault("REPRO_BENCH_MAX_OVERHEAD", "0.25")
    return pytest.main([__file__, "-q", "-s"])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

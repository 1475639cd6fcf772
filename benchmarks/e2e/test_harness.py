"""Checks on the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (not part of
the tier-1 ``testpaths``).  Everything here uses the ``--smoke`` sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import run

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SINGLE_THREADED = ("cross_audit", "local_scan", "integrity_sweep")


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory) -> list[dict]:
    """One ``--smoke --traced`` pass over all five workloads, timed."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.run", "--smoke", "--traced",
         "--out", str(out)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout
    assert elapsed < 20, f"--smoke took {elapsed:.1f} s"
    return json.loads(out.read_text())["runs"]


def test_smoke_runs_every_workload_correctly(smoke_runs):
    assert {r["workload"] for r in smoke_runs} == set(run.WORKLOAD_NAMES)
    assert {w["name"] for w in CONTRACT["workloads"]} == set(run.WORKLOAD_NAMES)
    for result in smoke_runs:
        assert result["correct"] and result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1


def test_emitted_names_and_units_equal_the_contract(smoke_runs):
    for result in smoke_runs:
        section = CONTRACT["per_layer" if result["trace"] else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in section
        }
        if not result["trace"]:
            assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_self_times_add_up_to_the_traced_wall(smoke_runs):
    for result in smoke_runs:
        if result["trace"] and result["workload"] in SINGLE_THREADED:
            coverage = result["metrics"]["bench.self_time_coverage"]["value"]
            assert 0.95 <= coverage <= 1.05, (result["workload"], coverage)


def test_local_scan_does_no_modexp_and_cross_audit_matches_the_model(smoke_runs):
    traced = {r["workload"]: r["metrics"] for r in smoke_runs if r["trace"]}
    assert traced["local_scan"]["crypto.modexp_count"]["value"] == 0
    cross = traced["cross_audit"]
    assert cross["crypto.modexp_count"]["value"] > 0
    assert cross["crypto.modexp_count"] == cross["crypto.modexp_predicted"]
    assert cross["net.messages"]["value"] == cross["net.messages_predicted"]["value"]


def test_wrappers_are_fully_restored():
    from repro.audit import executor
    from repro.smc import intersection

    from benchmarks.e2e.layers import Tracing, leftover_wrappers

    original = intersection.secure_set_intersection
    with Tracing():
        assert executor.secure_set_intersection is not original
        assert leftover_wrappers()
    assert executor.secure_set_intersection is original
    assert leftover_wrappers() == []


def test_the_oracle_catches_an_injected_wrong_answer(tmp_path):
    from benchmarks.e2e.workloads import LocalScan, Recorder

    workload = LocalScan(seed=1, smoke=True, workdir=tmp_path)
    workload.setup()
    try:
        honest = Recorder()
        workload.round(honest)
        assert honest.failed == 0 and honest.attempted == 30

        real_query = workload.service.query

        def drops_a_glsn(criterion):
            result = real_query(criterion)
            result.glsns = result.glsns[1:]
            return result

        workload.service.query = drops_a_glsn
        cheated = Recorder()
        workload.round(cheated)
        assert cheated.failed > 0
        assert "oracle says" in cheated.failures[0]
    finally:
        workload.teardown()


def test_the_1024_bit_modulus_is_a_safe_prime():
    from repro.crypto.primes import is_probable_prime

    from benchmarks.e2e.workloads import SAFE_PRIME_1024

    assert SAFE_PRIME_1024.bit_length() == 1024
    assert is_probable_prime(SAFE_PRIME_1024)
    assert is_probable_prime((SAFE_PRIME_1024 - 1) // 2)


def test_compare_flags_a_regression_and_an_unresolved_metric():
    from benchmarks.e2e.compare import verdict

    steady = [1.00, 1.01, 0.99, 1.00]
    assert verdict(steady, [1.02, 1.03, 1.01, 1.02], "lower", 0.1)[1] == "ok"
    assert verdict(steady, [1.30, 1.31, 1.29, 1.30], "lower", 0.1)[1] == "regressed"
    assert verdict(steady, [0.70, 0.71, 0.69, 0.70], "higher", 0.1)[1] == "regressed"
    assert verdict(steady, [0.8, 1.2, 1.0, 1.4], "lower", 0.1)[1] == "unresolved"

"""Hammer NetworkStats / CryptoOpCounter from many threads: no lost updates.

``x += 1`` is not atomic in CPython; before the counters took a lock a
16-thread hammer reliably lost increments.  These tests are the
regression guard for the scheduler's shared-transport accounting.
"""

from __future__ import annotations

import sys
import threading

from repro.net.stats import CryptoOpCounter, NetworkStats

THREADS = 16
ROUNDS = 500


def _hammer(worker) -> None:
    barrier = threading.Barrier(THREADS)

    def run(tid: int) -> None:
        barrier.wait()  # maximise interleaving
        for i in range(ROUNDS):
            worker(tid, i)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_network_stats_lose_no_records():
    stats = NetworkStats()

    def worker(tid: int, i: int) -> None:
        stats.record(f"k{tid % 4}", 10, f"P{tid % 3}", f"P{(tid + 1) % 3}")
        if i % 5 == 0:
            stats.record_drop()
        stats.record_timing(f"stage{tid % 2}", 0.001)

    _hammer(worker)
    total = THREADS * ROUNDS
    assert stats.messages == total
    assert stats.bytes == total * 10
    assert stats.dropped == THREADS * (ROUNDS // 5)
    assert sum(stats.by_kind.values()) == total
    assert sum(stats.bytes_by_kind.values()) == total * 10
    assert sum(stats.by_link.values()) == total
    assert sum(h.count for h in stats.stage_seconds.values()) == total
    assert abs(sum(h.sum for h in stats.stage_seconds.values()) - total * 0.001) < 1e-6
    assert stats.sizes.count == total
    assert sum(h.count for h in stats.stage_seconds.values()) == total


def test_crypto_op_counter_loses_no_adds():
    counter = CryptoOpCounter()

    def worker(tid: int, i: int) -> None:
        counter.add(f"P{tid % 4}.modexp")
        counter.add("encode", 2)

    _hammer(worker)
    total = THREADS * ROUNDS
    snapshot = counter.snapshot()
    assert sum(v for k, v in snapshot.items() if k.endswith("modexp")) == total
    assert snapshot["encode"] == total * 2
    assert counter.modexp == total


def test_merge_under_concurrent_adds_is_exact():
    """Per-query counters merged into a shared ledger while other merges
    race: the grand total is exactly the sum of every private counter."""
    shared = CryptoOpCounter()
    privates = [CryptoOpCounter() for _ in range(THREADS)]
    for tid, private in enumerate(privates):
        for _ in range(ROUNDS):
            private.add(f"q{tid}.modexp")

    barrier = threading.Barrier(THREADS)

    def merger(tid: int) -> None:
        barrier.wait()
        shared.merge(privates[tid])
        shared.add("post-merge")  # interleave direct adds with merges

    threads = [threading.Thread(target=merger, args=(t,)) for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snapshot = shared.snapshot()
    for tid in range(THREADS):
        assert snapshot[f"q{tid}.modexp"] == ROUNDS
    assert snapshot["post-merge"] == THREADS


def test_network_stats_merge_under_concurrent_records_is_exact():
    """Calls folding their private networks into the service ledger while
    other threads record into it directly: nothing is lost."""
    shared = NetworkStats()
    privates = [NetworkStats() for _ in range(THREADS)]
    for tid, private in enumerate(privates):
        for _ in range(ROUNDS):
            private.record(f"k{tid % 4}", 10, "A", "B")
            private.record_timing("stage", 0.001)
    barrier = threading.Barrier(THREADS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def merger(tid: int) -> None:
            barrier.wait()
            shared.merge(privates[tid])
            shared.record("direct", 1, "A", "B")

        threads = [threading.Thread(target=merger, args=(t,)) for t in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    total = THREADS * ROUNDS
    assert shared.messages == total + THREADS
    assert shared.bytes == total * 10 + THREADS
    assert shared.by_kind["direct"] == THREADS
    assert shared.sizes.count == total + THREADS
    assert shared.stage_seconds["stage"].count == total

"""Threaded property test: LruCache invariants hold under contention.

Many threads get/put/get_or_compute against one small cache; afterwards
the accounting must balance exactly — no lost entries, no double
evictions, and the bound is never exceeded.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cache import LruCache, set_caching_enabled

THREADS = 12
ROUNDS = 400
KEYS = 96  # ~6x the bound below: constant eviction pressure
BOUND = 16


@pytest.fixture(autouse=True)
def _caching_on():
    set_caching_enabled(True)
    yield
    set_caching_enabled(None)


def _run_threads(target) -> None:
    barrier = threading.Barrier(THREADS)

    def run(tid: int) -> None:
        barrier.wait()
        target(tid)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_accounting_balances_under_contention():
    cache = LruCache("thr.balance", max_entries=BOUND)

    def worker(tid: int) -> None:
        for i in range(ROUNDS):
            key = (tid * 31 + i) % KEYS
            if i % 3 == 0:
                cache.put(key, key * 2)
            else:
                got = cache.get(key)
                assert got is None or got == key * 2  # never a foreign value

    _run_threads(worker)
    stats = cache.stats
    assert stats.entries <= BOUND  # bound never exceeded
    assert len(cache) == stats.entries
    # Every get was either a hit or a miss, never both / neither.
    gets = THREADS * ROUNDS - THREADS * ((ROUNDS + 2) // 3)
    assert stats.hits + stats.misses == gets
    # Insertions either still live or were evicted exactly once:
    # distinct keys inserted - live entries == evictions of the rest.
    puts = THREADS * ((ROUNDS + 2) // 3)
    assert stats.evictions <= puts  # no double-counted evictions
    assert stats.evictions >= KEYS - BOUND  # pressure really evicted


def test_get_or_compute_no_lost_entries_without_eviction():
    """With room for every key, each key is computed at least once and
    every thread observes the correct value for every key."""
    cache = LruCache("thr.compute", max_entries=KEYS)
    compute_counts = [0] * KEYS
    count_lock = threading.Lock()

    def worker(tid: int) -> None:
        for i in range(ROUNDS):
            key = (tid + i) % KEYS

            def compute(key=key):
                with count_lock:
                    compute_counts[key] += 1
                return key * 7

            assert cache.get_or_compute(key, compute) == key * 7

    _run_threads(worker)
    stats = cache.stats
    assert stats.evictions == 0
    assert stats.entries == KEYS  # no lost entries
    assert all(c >= 1 for c in compute_counts)
    # hits + misses account for every single call.
    assert stats.hits + stats.misses == THREADS * ROUNDS
    # Every miss ran compute; plain LruCache may duplicate concurrent
    # computes (SingleFlightCache is the dedup layer), never lose them.
    assert sum(compute_counts) == stats.misses


def test_stats_snapshot_is_consistent_under_writers():
    """stats reads mid-hammer are internally consistent (taken under the
    same lock as the counters they report)."""
    cache = LruCache("thr.snapshot", max_entries=BOUND)
    stop = threading.Event()
    bad: list[str] = []

    def writer(tid: int) -> None:
        i = 0
        while not stop.is_set():
            cache.put((tid, i % KEYS), i)
            cache.get((tid, (i * 3) % KEYS))
            i += 1

    def reader() -> None:
        for _ in range(2000):
            s = cache.stats
            if s.entries > BOUND:
                bad.append(f"entries {s.entries} > bound {BOUND}")
            if s.hits < 0 or s.misses < 0 or s.evictions < 0:
                bad.append("negative counter")
        stop.set()

    writers = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    snap = threading.Thread(target=reader)
    for t in writers:
        t.start()
    snap.start()
    snap.join(timeout=60)
    stop.set()
    for t in writers:
        t.join(timeout=60)
    assert bad == []


def test_a_versioned_slot_never_goes_back_a_version():
    """Threads compute one slot at interleaved versions: whatever order
    their stores land in, the slot ends at the newest version, and every
    caller got the value of the version it asked for."""
    cache = LruCache("thr.slot", max_entries=BOUND)
    wrong: list[int] = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def worker(tid: int) -> None:
            for i in range(ROUNDS):
                version = tid + THREADS * i
                got = cache.get_or_compute("slot", lambda v=version: v * 7, version=version)
                if got != version * 7:
                    wrong.append(version)

        _run_threads(worker)
    finally:
        sys.setswitchinterval(previous)
    assert wrong == []
    newest = THREADS * ROUNDS - 1
    assert cache.get("slot") == (newest, newest * 7)

"""Randomized equivalence: cached paths must be value-identical to uncached.

The whole point of ``repro.cache`` is that memoization is *invisible*:
query results, integrity reports and witnesses must come out byte-for-byte
the same whether the caches are cold, hot, or disabled via the kill
switch (``set_caching_enabled(False)``) — and a mutation on any one node must be
reflected immediately (epoch-keyed lookups never serve stale entries).
"""

import random

import pytest

from repro.cache import set_caching_enabled
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
    shared_prime,
)
from repro.crypto.accumulator import OneWayAccumulator
from repro.audit.executor import QueryExecutor
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.logstore.integrity import IntegrityChecker, run_batched_integrity_round
from repro.smc.base import SmcContext

CRITERIA = [
    "C1 > 30",
    "C1 > 10 and C1 < 60",
    "protocl = 'UDP'",
    "C1 > 30 and protocl = 'UDP'",
    "C1 > 50 or id = 'U1'",
    "not (protocl = 'UDP')",
    "C1 < C2",
    "Tid = id",
]


def random_rows(seed: int, count: int) -> list[dict]:
    rnd = random.Random(seed)
    rows = []
    for i in range(count):
        rows.append(
            {
                "Time": f"20:{i:02d}:00/05/12/20",
                "id": f"U{rnd.randrange(1, 4)}",
                "protocl": rnd.choice(["UDP", "TCP"]),
                "Tid": f"T{1100265 + rnd.randrange(4)}",
                "C1": rnd.randrange(0, 100),
                "C2": f"{rnd.randrange(1, 900)}.{rnd.randrange(100):02d}",
                "C3": rnd.choice(["signature", "bank", "salary", "account"]),
            }
        )
    return rows


def build(seed: int, count: int = 8):
    """A populated store + executor over randomized Table-1-shaped rows."""
    schema = paper_table1_schema()
    plan = paper_fragment_plan(schema)
    authority = TicketAuthority(b"equiv-master-secret-0123456789ab")
    store = DistributedLogStore(
        plan,
        authority,
        AccumulatorParams.generate(128, DeterministicRng(f"acc:{seed}")),
    )
    ticket = authority.issue(
        "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    store.append_batch(random_rows(seed, count), ticket)
    ctx = SmcContext(shared_prime(64), DeterministicRng(f"smc:{seed}"))
    return store, ticket, QueryExecutor(store, ctx, schema)


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestQueryEquivalence:
    def test_cold_warm_disabled_identical(self, seed):
        store, _, executor = build(seed)
        for criterion in CRITERIA:
            cold = executor.execute(criterion).glsns
            warm = executor.execute(criterion).glsns  # served from caches
            set_caching_enabled(False)
            off = executor.execute(criterion).glsns
            set_caching_enabled(None)
            assert cold == warm == off, criterion

    def test_aggregates_identical(self, seed):
        store, _, executor = build(seed)
        for op in ("sum", "count", "max", "min"):
            cold = executor.aggregate(op, "C1", "C1 > 20").value
            warm = executor.aggregate(op, "C1", "C1 > 20").value
            set_caching_enabled(False)
            off = executor.aggregate(op, "C1", "C1 > 20").value
            set_caching_enabled(None)
            assert cold == warm == off


@pytest.mark.parametrize("seed", [11, 12])
class TestInvalidation:
    def test_append_invalidates(self, seed):
        store, ticket, executor = build(seed)
        before = executor.execute("C1 >= 0").glsns
        receipt = store.append(random_rows(seed + 1000, 1)[0], ticket)
        after = executor.execute("C1 >= 0").glsns
        assert set(after) == set(before) | {receipt.glsn}

    def test_delete_invalidates(self, seed):
        store, ticket, executor = build(seed)
        before = executor.execute("C1 >= 0").glsns
        store.delete_record(before[0], ticket)
        after = executor.execute("C1 >= 0").glsns
        assert set(after) == set(before) - {before[0]}

    def test_tamper_on_one_node_invalidates(self, seed):
        store, _, executor = build(seed)
        executor.execute("C1 > 50")  # populate caches
        node = store.plan.home_of("C1")
        victim = store.stores[node].glsns[0]
        store.stores[node].tamper(victim, "C1", 99)
        tampered = executor.execute("C1 > 50").glsns
        set_caching_enabled(False)
        truth = executor.execute("C1 > 50").glsns
        set_caching_enabled(None)
        assert tampered == truth
        assert victim in tampered


@pytest.mark.parametrize("seed", [21, 22])
class TestIntegrityEquivalence:
    def test_checker_hot_cold_disabled(self, seed):
        store, _, _ = build(seed)
        node = random.Random(seed).choice(sorted(store.stores))
        victim = store.stores[node].glsns[-1]
        store.stores[node].tamper(victim, store.plan.assignment[node][0], "EVIL")
        # The checker keeps no cache: a repeat, the kill switch and the
        # ring (whose memos *are* warm on its second sweep) all agree.
        checker = IntegrityChecker(store)
        cold = checker.check_all()
        warm = checker.check_all()
        set_caching_enabled(False)
        off = IntegrityChecker(store).check_all()
        set_caching_enabled(None)
        run_batched_integrity_round(store)
        ring = run_batched_integrity_round(store)
        assert cold == warm == off == ring
        assert [r.glsn for r in cold if not r.ok] == [victim]

    def test_ring_matches_checker(self, seed):
        store, _, _ = build(seed)
        ring = {r.glsn: (r.ok, r.observed) for r in run_batched_integrity_round(store)}
        local = {
            r.glsn: (r.ok, r.observed) for r in IntegrityChecker(store).check_all()
        }
        assert ring == local


class TestWitnessEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 17, 33])
    def test_tree_matches_naive_chains(self, k):
        params = AccumulatorParams.generate(128, DeterministicRng(f"wit:{k}"))
        acc = OneWayAccumulator(params)
        rnd = random.Random(k)
        items = [rnd.randbytes(12) for _ in range(k)]
        tree = acc.witness_all(items)
        naive = []
        for i in range(k):
            value = params.x0
            for j, item in enumerate(items):
                if j != i:
                    value = acc.step(value, item)
            naive.append(value)
        assert tree == naive
        assert tree == [acc.witness(items, i) for i in range(k)]

    def test_every_witness_verifies(self):
        params = AccumulatorParams.generate(128, DeterministicRng(b"wit-v"))
        acc = OneWayAccumulator(params)
        items = [f"frag-{i}".encode() for i in range(9)]
        total = acc.accumulate_all(items)
        for item, witness in zip(items, acc.witness_all(items)):
            assert acc.step(witness, item) == total

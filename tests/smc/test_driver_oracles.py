"""Every protocol driver against its plaintext answer, once per case.

Each case runs a driver on a private ``SimNetwork`` and checks what every
observer learned against the answer computed in the clear: ∩, ∪, =, <,
rank, Σ and weighted Σ, and the §4.1 ring rounds' verdicts on an
untampered and a tampered store.  The fault cases run the same drivers
under seeded drop/reorder plans with retransmission (``RetryPolicy``), so
the answer must survive loss, duplication and delay.
"""

from __future__ import annotations

import pytest

from repro.crypto import DeterministicRng, shared_prime
from repro.logstore.integrity import (
    run_batched_integrity_round,
    run_combined_integrity_round,
    run_integrity_round,
)
from repro.net.faults import FaultPlan
from repro.net.simnet import SimNetwork
from repro.resilience import RetryPolicy
from repro.smc import (
    SmcContext,
    secure_compare,
    secure_compare_batch,
    secure_equality,
    secure_equality_commutative,
    secure_ranking,
    secure_set_intersection,
    secure_set_union,
    secure_sum,
    secure_weighted_sum,
)

PRIME = shared_prime(64)


def make_net(seed: bytes | None = None, drop_rate: float = 0.0, reorder_rate: float = 0.0):
    """A network, faulty with retransmission when ``seed`` is given."""
    if seed is None:
        return SimNetwork()
    faults = FaultPlan(
        drop_rate=drop_rate, reorder_rate=reorder_rate, rng=DeterministicRng(seed)
    )
    return SimNetwork(resilience=RetryPolicy(), faults=faults)


def run(driver, *args, seed: bytes = b"oracle", **net_kwargs):
    """Run ``driver(ctx, *args, net=...)`` once; the result must be whole."""
    ctx = SmcContext(PRIME, DeterministicRng(seed))
    result = driver(ctx, *args, net=make_net(**net_kwargs))
    assert not result.degraded and result.skipped == ()
    return result


def verdict(a: int, b: int) -> str:
    return "lt" if a < b else ("gt" if a > b else "eq")


def every_observer(result) -> list:
    """The value each observer learned; all of them must agree."""
    values = list(result.values.values())
    assert values and all(v == values[0] for v in values)
    return values[0]


class TestProtocolOracles:
    SETS = {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]}

    def test_intersection(self):
        result = run(secure_set_intersection, self.SETS)
        expected = set.intersection(*map(set, self.SETS.values()))
        assert sorted(every_observer(result)) == sorted(expected) == ["e"]

    def test_union(self):
        sets = {"A": [1, 2, 3], "B": [3, 4, 5], "C": [5, 6]}
        result = run(secure_set_union, sets)
        assert every_observer(result) == sorted(set().union(*sets.values()))

    @pytest.mark.parametrize("values,expected", [((7, 7), True), ((7, 9), False)])
    def test_equality(self, values, expected):
        result = run(secure_equality, ("A", values[0]), ("B", values[1]))
        assert every_observer(result) is expected is (values[0] == values[1])

    def test_equality_commutative(self):
        for left, right in ((42, 42), (42, 43)):
            result = run(secure_equality_commutative, ("A", left), ("B", right))
            assert every_observer(result) is (left == right)

    def test_compare(self):
        for left, right in ((3, 9), (9, 3), (5, 5)):
            result = run(secure_compare, ("A", left), ("B", right))
            assert every_observer(result) == verdict(left, right)

    def test_compare_batch(self):
        lvals, rvals = [1, 50, 7, 7], [2, 3, 7, 6]
        result = run(secure_compare_batch, ("A", lvals), ("B", rvals))
        assert every_observer(result) == list(map(verdict, lvals, rvals))

    def test_ranking(self):
        values = {"A": 31, "B": 17, "C": 99}
        result = run(secure_ranking, values)
        ordered = sorted(values, key=values.get)
        for pid in values:
            seen = result.value_for(pid)
            assert seen["rank"] == ordered.index(pid) + 1
            assert (seen["argmin"], seen["argmax"]) == (ordered[0], ordered[-1])

    def test_sum(self):
        values = {"A": 10, "B": 20, "C": 12}
        result = run(secure_sum, values, ["A"])
        assert result.observers == {"A"}
        assert result.value_for("A") == sum(values.values())

    def test_weighted_sum(self):
        values = {"A": 10, "B": 20}
        weights = {"A": 3, "B": 2}
        result = run(secure_weighted_sum, values, weights, ["B"])
        assert result.observers == {"B"}
        assert result.value_for("B") == sum(weights[p] * values[p] for p in values)


class TestRandomizedFaults:
    """The oracle must hold under chaos: drops retransmitted, reorders delayed."""

    FAULTS = {"drop_rate": 0.1, "reorder_rate": 0.2}

    @pytest.mark.parametrize("seed", [b"f0", b"f1", b"f2"])
    def test_intersection_under_faults(self, seed):
        rng = DeterministicRng(seed + b"-inputs")
        universe = [f"v{i}" for i in range(12)]
        sets = {
            pid: sorted({universe[rng.randrange(len(universe))] for _ in range(6)})
            for pid in ("P1", "P2", "P3")
        }
        expected = sorted(set(sets["P1"]) & set(sets["P2"]) & set(sets["P3"]))
        result = run(secure_set_intersection, sets, seed=seed, **self.FAULTS)
        assert sorted(every_observer(result)) == expected

    @pytest.mark.parametrize("seed", [b"g0", b"g1", b"g2"])
    def test_sum_under_faults(self, seed):
        rng = DeterministicRng(seed + b"-inputs")
        values = {pid: rng.randrange(100) for pid in ("A", "B", "C", "D")}
        result = run(secure_sum, values, ["A"], seed=seed, **self.FAULTS)
        assert result.value_for("A") == sum(values.values())

    @pytest.mark.parametrize("seed", [b"h0", b"h1"])
    def test_compare_batch_under_faults(self, seed):
        rng = DeterministicRng(seed + b"-inputs")
        lvals = [rng.randrange(50) for _ in range(8)]
        rvals = [rng.randrange(50) for _ in range(8)]
        result = run(
            secure_compare_batch, ("A", lvals), ("B", rvals), seed=seed, **self.FAULTS
        )
        assert every_observer(result) == list(map(verdict, lvals, rvals))


class TestIntegrityOracles:
    """A ring round's verdict: every glsn intact, until one fragment is
    tampered — then exactly that glsn fails, and it is intact again once
    the fragment is restored."""

    def _tampered(self, populated_store):
        store, _ticket, receipts = populated_store
        glsn = receipts[2].glsn
        node = store.node_store("P1")
        original = node.local_fragment(glsn).values["C2"]
        node.tamper(glsn, "C2", 10**6)
        return store, glsn, lambda: node.tamper(glsn, "C2", original)

    def _verdicts(self, store, round_fn, glsns=None):
        reports = round_fn(store, glsns=glsns, net=SimNetwork())
        assert all(r.verified for r in reports)
        return {r.glsn: r.ok for r in reports}

    def test_batched_round(self, populated_store):
        store = populated_store[0]
        assert self._verdicts(store, run_batched_integrity_round) == dict.fromkeys(
            store.glsns, True
        )
        store, bad, restore = self._tampered(populated_store)
        expected = {g: g != bad for g in store.glsns}
        assert self._verdicts(store, run_batched_integrity_round) == expected
        restore()
        assert all(self._verdicts(store, run_batched_integrity_round).values())

    def test_combined_round(self, populated_store):
        store = populated_store[0]
        clean = run_combined_integrity_round(store, net=SimNetwork())
        assert clean.ok and clean.verified and clean.glsns == tuple(store.glsns)
        store, bad, _restore = self._tampered(populated_store)
        report = run_combined_integrity_round(store, net=SimNetwork())
        assert not report.ok
        assert [r.glsn for r in report.reports if not r.ok] == [bad]

    def test_per_glsn_round(self, populated_store):
        store, _ticket, receipts = populated_store
        glsns = [receipts[0].glsn, receipts[2].glsn]
        assert self._verdicts(store, run_integrity_round, glsns) == dict.fromkeys(
            glsns, True
        )
        store, bad, _restore = self._tampered(populated_store)
        assert self._verdicts(store, run_integrity_round, glsns) == {
            glsns[0]: True,
            bad: False,
        }

"""Chaos matrix (ISSUE acceptance): fault sweeps over every SMC protocol.

Sweeps drop/duplicate/partition faults over all six SMC protocols and the
batched integrity ring, on a resilient network.  The contract under test:
every run either returns a **correct** result (possibly explicitly
``degraded`` with the skipped nodes named) or raises a **typed,
attributed** failure — never a hang (the simulator's ``max_steps`` guard
turns a hang into an error) and never a silent wrong answer.

:class:`TestPlainNetColumn` runs the same grid with ``resilience=None``:
the drivers launch through the same supervisor there, which cannot
repair anything without the reliability layer's diagnosis, so the
contract narrows to "the correct answer or a typed abort".
"""

import pytest

from repro.crypto import DeterministicRng
from repro.core import ConfidentialAuditingService
from repro.errors import ProtocolAbortError, ReproError, RingFailoverError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.logstore.integrity import run_batched_integrity_round
from repro.net.faults import FaultPlan
from repro.net.simnet import SimNetwork
from repro.resilience import RetryPolicy
from repro.smc.base import SmcContext
from repro.smc.comparison import secure_compare, secure_compare_batch
from repro.smc.equality import secure_equality
from repro.smc.intersection import secure_set_intersection
from repro.smc.ranking import secure_ranking
from repro.smc.sum_ import secure_sum
from repro.smc.union_ import secure_set_union
from tests.driver_cases import (
    DRIVER_CASES,
    DRIVER_NODES,
    INT_SETS,
    SETS,
    VALUES,
    small_store,
)

FAULT_GRID = [
    {"drop_rate": 0.05},
    {"drop_rate": 0.2},
    {"duplicate_rate": 0.3},
    {"drop_rate": 0.1, "duplicate_rate": 0.2},
    {"drop_rate": 0.1, "corrupt_rate": 0.1},
]


def faulty_net(spec: dict, seed: str, reliable: bool = True) -> SimNetwork:
    faults = FaultPlan(rng=DeterministicRng(seed.encode()), **spec)
    return SimNetwork(resilience=RetryPolicy() if reliable else None, faults=faults)


def fresh_ctx(prime, tag: str) -> SmcContext:
    return SmcContext(prime, DeterministicRng(tag.encode()))


class TestProtocolsUnderProbabilisticFaults:
    """drop_rate <= 0.2 (+ duplication/corruption): always correct,
    never degraded — the retry layer absorbs probabilistic faults."""

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    def test_intersection(self, prime64, spec):
        result = secure_set_intersection(
            fresh_ctx(prime64, f"i{spec}"), SETS, net=faulty_net(spec, f"i{spec}")
        )
        assert result.any_value == ["b"]
        assert not result.degraded

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    def test_union(self, prime64, spec):
        result = secure_set_union(
            fresh_ctx(prime64, f"u{spec}"), INT_SETS, net=faulty_net(spec, f"u{spec}")
        )
        assert result.any_value == [1, 2, 3, 4, 5]
        assert not result.degraded

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    def test_sum(self, prime64, spec):
        result = secure_sum(
            fresh_ctx(prime64, f"s{spec}"), VALUES, net=faulty_net(spec, f"s{spec}")
        )
        assert result.any_value == 46
        assert not result.degraded

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    def test_equality(self, prime64, spec):
        result = secure_equality(
            fresh_ctx(prime64, f"e{spec}"),
            ("A", "tcp"),
            ("B", "tcp"),
            net=faulty_net(spec, f"e{spec}"),
        )
        assert result.values == {"A": True, "B": True}

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    def test_comparison(self, prime64, spec):
        result = secure_compare(
            fresh_ctx(prime64, f"c{spec}"),
            ("A", 9),
            ("B", 30),
            value_bound=100,
            net=faulty_net(spec, f"c{spec}"),
        )
        assert result.any_value == "lt"

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    def test_batch_comparison(self, prime64, spec):
        result = secure_compare_batch(
            fresh_ctx(prime64, f"b{spec}"),
            ("A", [1, 50, 30]),
            ("B", [2, 50, 7]),
            value_bound=100,
            net=faulty_net(spec, f"b{spec}"),
        )
        assert result.any_value == ["lt", "eq", "gt"]

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    def test_ranking(self, prime64, spec):
        result = secure_ranking(
            fresh_ctx(prime64, f"r{spec}"),
            VALUES,
            net=faulty_net(spec, f"r{spec}"),
        )
        assert result.values["P0"]["argmax"] == "P2"
        assert result.values["P0"]["argmin"] == "P3"
        assert not result.degraded


class TestSinglePartitionedNode:
    """One fully partitioned (crashed) node: every protocol completes
    with either a correct degraded result or a typed failure."""

    def _crashed(self, victim: str) -> SimNetwork:
        faults = FaultPlan()
        faults.crash(victim)
        return SimNetwork(resilience=RetryPolicy(), faults=faults)

    @pytest.mark.parametrize("victim", sorted(SETS))
    def test_intersection_each_victim(self, prime64, victim):
        try:
            result = secure_set_intersection(
                fresh_ctx(prime64, f"iv{victim}"), SETS, net=self._crashed(victim)
            )
        except ReproError:
            return  # typed, attributed failure is acceptable
        assert result.degraded
        assert result.skipped == (victim,)
        survivors = {p: v for p, v in SETS.items() if p != victim}
        expect = sorted(set.intersection(*(set(v) for v in survivors.values())))
        assert result.any_value == expect

    @pytest.mark.parametrize("victim", sorted(VALUES))
    def test_sum_each_victim(self, prime64, victim):
        try:
            result = secure_sum(
                fresh_ctx(prime64, f"sv{victim}"), VALUES, net=self._crashed(victim)
            )
        except ReproError:
            return
        assert result.degraded and result.skipped == (victim,)
        assert result.any_value == sum(
            v for p, v in VALUES.items() if p != victim
        )

    @pytest.mark.parametrize("victim", sorted(VALUES))
    def test_ranking_each_victim(self, prime64, victim):
        try:
            result = secure_ranking(
                fresh_ctx(prime64, f"rv{victim}"), VALUES, net=self._crashed(victim)
            )
        except ReproError:
            return
        assert result.degraded and result.skipped == (victim,)
        survivors = {p: v for p, v in VALUES.items() if p != victim}
        expect_max = max(survivors, key=survivors.get)
        any_verdict = next(iter(result.values.values()))
        assert any_verdict["argmax"] == expect_max

    def test_equality_dead_ttp_recovers(self, prime64):
        result = secure_equality(
            fresh_ctx(prime64, "eqt"), ("A", 1), ("B", 2), net=self._crashed("ttp")
        )
        assert result.values == {"A": False, "B": False}
        assert result.failovers >= 1

    def test_comparison_dead_ttp_recovers(self, prime64):
        result = secure_compare(
            fresh_ctx(prime64, "cmt"),
            ("A", 5),
            ("B", 5),
            value_bound=10,
            net=self._crashed("ttp"),
        )
        assert result.any_value == "eq"
        assert result.failovers >= 1


class TestPlainNetColumn:
    """``resilience=None`` over the same grid, every driver including the
    three integrity rounds: the correct answer or a typed
    :class:`ProtocolAbortError` — never a hang, never a wrong or partial
    answer (an integrity case's answer names every requested glsn)."""

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    @pytest.mark.parametrize("driver", sorted(DRIVER_CASES))
    def test_correct_or_typed_abort(self, prime64, driver, spec):
        for seed in range(3):
            net = faulty_net(spec, f"plain-{driver}-{seed}", reliable=False)
            try:
                answer, expected = DRIVER_CASES[driver](prime64, net)
            except ProtocolAbortError:
                continue
            assert answer == expected

    @pytest.mark.parametrize(
        "driver,victim",
        [(d, v) for d in sorted(DRIVER_CASES) for v in DRIVER_NODES[d]],
    )
    def test_crashed_node_is_a_typed_abort(self, prime64, driver, victim):
        """Nothing can be re-routed or excluded without a diagnosis: one
        launch, then the typed failure naming the protocol."""
        faults = FaultPlan()
        faults.crash(victim)
        with pytest.raises(RingFailoverError, match="no diagnosable link failure"):
            DRIVER_CASES[driver](prime64, SimNetwork(faults=faults))


class TestIntegrityRingChaos:
    _store = staticmethod(small_store)

    @pytest.mark.parametrize("spec", FAULT_GRID, ids=str)
    def test_batched_ring_under_faults(self, spec):
        store = self._store(f"ig{spec}")
        reports = run_batched_integrity_round(
            store, net=faulty_net(spec, f"ig{spec}")
        )
        assert all(r.ok and r.verified for r in reports)

    def test_batched_ring_crashed_node_is_unverified(self):
        store = self._store("igc")
        victim = sorted(store.stores)[2]
        faults = FaultPlan()
        faults.crash(victim)
        net = SimNetwork(resilience=RetryPolicy(), faults=faults)
        reports = run_batched_integrity_round(store, net=net)
        # Degraded integrity must be *unverified* — never a false
        # "intact" claim and never a false tamper accusation.
        assert all(not r.ok and not r.verified for r in reports)
        assert all(r.skipped_nodes == (victim,) for r in reports)

    def test_batched_ring_partition_reroutes_fully_verified(self):
        store = self._store("igp")
        ids = sorted(store.stores)
        faults = FaultPlan()
        faults.partition(ids[0], ids[3])
        net = SimNetwork(resilience=RetryPolicy(), faults=faults)
        reports = run_batched_integrity_round(store, net=net)
        assert all(r.ok and r.verified for r in reports)
        assert net.resilience_stats.get("failovers", 0) >= 1


class TestCrossPredicateOwnerCrashed:
    """An owner of a cross predicate is down when its alignment round
    starts.  The outcomes are those recorded at commit d2703a4, where the
    alignment was always a presence intersection: losing either owner of
    an ordered predicate is a typed failure (the survivor cannot be
    compared against nobody), and ``!=`` with its right owner down
    degrades to an explicitly-flagged empty answer."""

    def _query(self, victim: str, criterion: str):
        schema = paper_table1_schema()
        faults = FaultPlan(rng=DeterministicRng(b"chaos-align"))
        service = ConfidentialAuditingService(
            schema, paper_fragment_plan(schema), prime_bits=64,
            rng=DeterministicRng(b"chaos-align"),
            resilience=RetryPolicy(), faults=faults,
        )
        ticket = service.register_user("u")
        for i in range(8):
            service.log_event({"C1": i, "C5": 4, "C2": i}, ticket)
        faults.crash(victim)
        try:
            return service.query(criterion, timeout=60), service.ctx.leakage
        finally:
            service.close()

    @pytest.mark.parametrize("victim", ["P1", "P3"])
    def test_ordered_predicate_fails_typed(self, victim):
        with pytest.raises(RingFailoverError):
            self._query(victim, "C1 > C5 and C2 < 7")

    def test_inequality_degrades_and_says_so(self):
        result, ledger = self._query("P1", "C1 != C5")
        assert result.glsns == []
        assert ledger.count("degraded_result") >= 1

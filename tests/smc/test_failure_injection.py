"""Failure injection: how the relaxed-SMC protocols fail, loudly.

The protocols are single-shot (no retransmission layer — the paper assumes
reliable routing "handled by the lower network layer").  Under message
loss or partitions they must therefore fail *detectably*: the driver
raises ProtocolAbortError instead of returning partial or wrong results.
Every driver launches through the failover supervisor, which on these
plain networks has no failed-link diagnosis to act on: one launch, then
the typed error.  :class:`TestEveryDriver` holds all ten drivers, the
three integrity rounds included, to that contract.
"""

import pytest

from repro.crypto.rng import DeterministicRng
from repro.errors import ProtocolAbortError
from repro.net.faults import FaultPlan
from repro.net.simnet import SimNetwork
from repro.smc.base import SmcContext
from repro.smc.equality import secure_equality
from repro.smc.intersection import secure_set_intersection
from repro.smc.ranking import secure_ranking
from repro.smc.sum_ import secure_sum
from tests.driver_cases import DRIVER_CASES

SETS = {"P0": ["a", "b"], "P1": ["b", "c"], "P2": ["b", "d"]}


def lossy_net(drop_rate: float, seed: bytes = b"loss") -> SimNetwork:
    return SimNetwork(
        faults=FaultPlan(drop_rate=drop_rate, rng=DeterministicRng(seed))
    )


class TestMessageLoss:
    def test_total_loss_aborts_intersection(self, ctx):
        with pytest.raises(ProtocolAbortError):
            secure_set_intersection(ctx, SETS, net=lossy_net(1.0))

    def test_total_loss_aborts_sum(self, ctx):
        with pytest.raises(ProtocolAbortError):
            secure_sum(ctx, {"A": 1, "B": 2}, net=lossy_net(1.0))

    def test_total_loss_aborts_equality(self, ctx):
        with pytest.raises(ProtocolAbortError):
            secure_equality(ctx, ("A", 1), ("B", 1), net=lossy_net(1.0))

    def test_total_loss_aborts_ranking(self, ctx):
        with pytest.raises(ProtocolAbortError):
            secure_ranking(ctx, {"A": 1, "B": 2}, net=lossy_net(1.0))

    def test_lossless_net_with_fault_plan_succeeds(self, ctx):
        """A fault plan with zero rates must be a no-op."""
        result = secure_set_intersection(ctx, SETS, net=lossy_net(0.0))
        assert result.any_value == ["b"]

    def test_partial_loss_never_returns_wrong_result(self, prime64):
        """Across many lossy runs: either abort, or the correct answer."""
        completed = 0
        for seed in range(12):
            ctx = SmcContext(prime64, DeterministicRng(seed))
            net = lossy_net(0.3, seed=f"pl-{seed}".encode())
            try:
                result = secure_set_intersection(ctx, SETS, net=net)
            except ProtocolAbortError:
                continue
            completed += 1
            assert result.any_value == ["b"]
        # With 30% loss and ~15 messages the protocol rarely completes;
        # what matters is zero wrong completions (asserted above).
        assert completed <= 12


class TestPartition:
    def test_partitioned_party_aborts(self, ctx):
        faults = FaultPlan()
        faults.partition("P0", "P1")
        net = SimNetwork(faults=faults)
        with pytest.raises(ProtocolAbortError):
            secure_set_intersection(ctx, SETS, net=net)

    def test_healed_partition_recovers_fresh_run(self, ctx):
        faults = FaultPlan()
        faults.partition("P0", "P1")
        faults.heal_all()
        net = SimNetwork(faults=faults)
        result = secure_set_intersection(ctx, SETS, net=net)
        assert result.any_value == ["b"]

    def test_crashed_ttp_aborts_ranking(self, ctx):
        faults = FaultPlan()
        faults.crash("ttp")
        net = SimNetwork(faults=faults)
        with pytest.raises(ProtocolAbortError):
            secure_ranking(ctx, {"A": 1, "B": 2}, net=net)


class TestDuplication:
    def test_duplicated_share_detected_by_sum(self, ctx):
        """Duplicate delivery of a share is a protocol violation the
        receiver detects (duplicate-share guard)."""
        net = SimNetwork(
            faults=FaultPlan(duplicate_rate=1.0, rng=DeterministicRng(b"dup"))
        )
        with pytest.raises(ProtocolAbortError):
            secure_sum(ctx, {"A": 1, "B": 2}, net=net)

    def test_duplicated_intersection_messages_harmless_or_abort(self, prime64):
        """Ring relays are idempotent per hop-count; duplicates at the
        collector change full-set counting, which must not produce a wrong
        answer (it may abort)."""
        for seed in range(6):
            ctx = SmcContext(prime64, DeterministicRng(1000 + seed))
            net = SimNetwork(
                faults=FaultPlan(
                    duplicate_rate=0.5, rng=DeterministicRng(f"d{seed}".encode())
                )
            )
            try:
                result = secure_set_intersection(ctx, SETS, net=net)
            except (ProtocolAbortError, Exception):
                continue
            assert result.any_value == ["b"]


@pytest.mark.parametrize("driver", sorted(DRIVER_CASES))
class TestEveryDriver:
    def test_total_loss_aborts(self, prime64, driver):
        with pytest.raises(ProtocolAbortError):
            DRIVER_CASES[driver](prime64, lossy_net(1.0))

    @pytest.mark.parametrize(
        "spec", [{"drop_rate": 0.3}, {"duplicate_rate": 0.5}], ids=str
    )
    def test_never_a_wrong_or_partial_answer(self, prime64, driver, spec):
        for seed in range(8):
            faults = FaultPlan(rng=DeterministicRng(f"ed-{seed}".encode()), **spec)
            try:
                answer, expected = DRIVER_CASES[driver](
                    prime64, SimNetwork(faults=faults)
                )
            except ProtocolAbortError:
                continue
            assert answer == expected

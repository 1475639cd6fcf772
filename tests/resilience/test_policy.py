"""Unit tests for RetryPolicy and Deadline (repro.resilience.policy)."""

import pytest

from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.resilience import Deadline, RetryPolicy


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 4
        assert not policy.exhausted(3)
        assert policy.exhausted(4)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        delays = [policy.backoff(i) for i in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(
            base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.5,
            rng=DeterministicRng(b"jitter-test"),
        )
        for _ in range(200):
            assert 0.5 <= policy.backoff(1) <= 1.5

    def test_jitter_is_deterministic(self):
        a = RetryPolicy(rng=DeterministicRng(b"same-seed"))
        b = RetryPolicy(rng=DeterministicRng(b"same-seed"))
        assert [a.backoff(i) for i in (1, 2, 3)] == [
            b.backoff(i) for i in (1, 2, 3)
        ]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(ack_timeout=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff(0)


class TestDeadline:
    def test_never_passes_all_checks(self):
        deadline = Deadline.never()
        assert not deadline.is_finite
        assert not deadline.expired
        assert deadline.remaining() == float("inf")
        deadline.check("anything")

    def test_after_none_is_never(self):
        assert not Deadline.after(None).is_finite

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline.after(-1.0)

    def test_expired_deadline_raises_with_stage(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("smc.sum")
        assert "smc.sum" in str(excinfo.value)

    def test_generous_deadline_not_expired(self):
        deadline = Deadline.after(3600.0)
        assert deadline.is_finite
        assert not deadline.expired
        assert 0 < deadline.remaining() <= 3600.0

    def test_clamp_takes_the_tighter_bound(self):
        assert Deadline.never().clamp(5.0) == 5.0
        assert Deadline.never().clamp(None) is None
        finite = Deadline.after(10.0)
        assert finite.clamp(None) <= 10.0
        assert finite.clamp(0.5) == 0.5
        assert Deadline.after(0.0).clamp(5.0) == 0.0

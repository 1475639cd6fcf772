"""Tests for the deterministic DRBG."""

import pytest

from repro.crypto.rng import DeterministicRng, SystemRng, system_rng
from repro.errors import ConfigurationError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(1234)
        b = DeterministicRng(1234)
        assert [a.getrandbits(64) for _ in range(10)] == [
            b.getrandbits(64) for _ in range(10)
        ]

    def test_different_seeds_diverge(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert a.getrandbits(128) != b.getrandbits(128)

    def test_seed_types(self):
        for seed in (0, -5, "hello", b"bytes"):
            DeterministicRng(seed).getrandbits(32)

    def test_bad_seed_type_rejected(self):
        with pytest.raises(ConfigurationError):
            DeterministicRng(3.14)

    def test_spawn_independent_and_stable(self):
        root = DeterministicRng(7)
        child_a1 = root.spawn("a")
        child_b = root.spawn("b")
        # Spawning again from an equally-seeded root yields the same child.
        child_a2 = DeterministicRng(7).spawn("a")
        assert child_a1.getrandbits(64) == child_a2.getrandbits(64)
        assert child_a1.getrandbits(64) != child_b.getrandbits(64)

    def test_spawn_does_not_disturb_parent(self):
        a = DeterministicRng(9)
        b = DeterministicRng(9)
        a.spawn("side-channel")
        assert a.getrandbits(64) == b.getrandbits(64)


class TestDistributionalShape:
    def test_getrandbits_respects_width(self):
        rng = DeterministicRng(5)
        for k in (1, 7, 8, 63, 64, 65, 255, 256, 300):
            for _ in range(20):
                assert rng.getrandbits(k) < (1 << k)

    def test_getrandbits_zero(self):
        assert DeterministicRng(1).getrandbits(0) == 0

    def test_getrandbits_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            DeterministicRng(1).getrandbits(-1)

    def test_randbelow_range_and_coverage(self):
        rng = DeterministicRng(11)
        seen = {rng.randbelow(5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}

    def test_randbelow_invalid(self):
        with pytest.raises(ConfigurationError):
            DeterministicRng(1).randbelow(0)

    def test_randrange_and_randint(self):
        rng = DeterministicRng(13)
        for _ in range(50):
            assert 10 <= rng.randrange(10, 20) < 20
            assert 10 <= rng.randint(10, 20) <= 20

    def test_randrange_empty(self):
        with pytest.raises(ConfigurationError):
            DeterministicRng(1).randrange(5, 5)

    def test_randbytes_length(self):
        rng = DeterministicRng(17)
        assert len(rng.randbytes(0)) == 0
        assert len(rng.randbytes(33)) == 33

    def test_random_unit_interval(self):
        rng = DeterministicRng(19)
        values = [rng.random() for _ in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 90  # not degenerate


class TestSequenceHelpers:
    def test_choice(self):
        rng = DeterministicRng(23)
        items = ["a", "b", "c"]
        assert {rng.choice(items) for _ in range(100)} == set(items)

    def test_choice_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            DeterministicRng(1).choice([])

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(29)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # overwhelming probability


class TestSystemRng:
    def test_interface(self):
        rng = system_rng()
        assert isinstance(rng, SystemRng)
        assert rng.getrandbits(64) < (1 << 64)
        assert 0 <= rng.randbelow(10) < 10
        assert isinstance(rng.spawn("x"), SystemRng)

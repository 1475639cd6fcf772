"""Tests for primality testing and prime generation."""

import pytest

from repro.crypto.primes import (
    _verify_table,
    is_probable_prime,
    prime_above,
    random_prime,
    rsa_modulus,
    safe_prime,
    sophie_germain_pair,
)
from repro.crypto.rng import DeterministicRng
from repro.errors import ParameterError

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, (1 << 61) - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 100, 7917, 561, 41041, 2**61 - 3]
# 561 and 41041 are Carmichael numbers — Fermat-fooling, Miller-Rabin must
# still reject them.


class TestMillerRabin:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_accepts_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_rejects_composites(self, n):
        assert not is_probable_prime(n)

    def test_negative(self):
        assert not is_probable_prime(-7)

    def test_large_semiprime_rejected(self):
        p = 1000003
        q = 1000033
        assert not is_probable_prime(p * q)


class TestGeneration:
    def test_random_prime_bits(self, rng):
        for bits in (8, 16, 32, 64):
            p = random_prime(bits, rng=rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_random_prime_too_small(self):
        with pytest.raises(ParameterError):
            random_prime(1)

    def test_safe_prime_structure(self, rng):
        p = safe_prime(64, rng=rng, fresh=True)
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)
        assert p.bit_length() == 64

    def test_safe_prime_table_fast_path(self):
        # Table entries are deterministic and valid.
        assert safe_prime(128) == safe_prime(128)
        _verify_table()

    @pytest.mark.parametrize("bits", [1024, 2048])
    def test_safe_prime_table_holds_the_modp_groups(self, bits):
        """RFC 2409 group 2 / RFC 3526 group 14 (``_verify_table`` checks
        primality): 64 one bits at either end, digits of pi between."""
        p = safe_prime(bits)
        assert p.bit_length() == bits
        assert p >> (bits - 64) == p % 2**64 == 2**64 - 1
        assert hex(p)[18:26] == "c90fdaa2"

    def test_sophie_germain_pair(self):
        p, q = sophie_germain_pair(64)
        assert p == 2 * q + 1
        assert is_probable_prime(p) and is_probable_prime(q)

    def test_rsa_modulus(self, rng):
        n, p, q = rsa_modulus(64, rng=rng)
        assert n == p * q
        assert p != q
        assert n.bit_length() == 64
        assert is_probable_prime(p) and is_probable_prime(q)

    def test_rsa_modulus_too_small(self):
        with pytest.raises(ParameterError):
            rsa_modulus(8)


class TestPrimeAbove:
    @pytest.mark.parametrize("lower", [0, 1, 2, 3, 10, 100, 10**6, 10**12, 10**12 - 1])
    def test_strictly_above_and_prime(self, lower):
        p = prime_above(lower)
        assert p > lower
        assert is_probable_prime(p)

    def test_tight(self):
        # No prime may be skipped: prime_above(10) must be 11, not 13.
        assert prime_above(10) == 11
        assert prime_above(13) == 17
        assert prime_above(1) == 2

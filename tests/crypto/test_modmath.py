"""Tests for modular-arithmetic helpers."""

import pytest

from repro.crypto.modmath import (
    egcd,
    find_subgroup_generator,
    int_to_bytes,
    jacobi,
    modinv,
)
from repro.crypto.rng import DeterministicRng
from repro.errors import ParameterError


class TestEgcdInv:
    def test_egcd_identity(self):
        for a, b in [(12, 18), (35, 64), (0, 5), (7, 0), (1, 1), (270, 192)]:
            g, x, y = egcd(a, b)
            assert a * x + b * y == g

    def test_modinv_roundtrip(self):
        m = 1_000_003  # prime
        for a in (1, 2, 999, 123456, m - 1):
            assert (a * modinv(a, m)) % m == 1

    def test_modinv_noninvertible(self):
        with pytest.raises(ParameterError):
            modinv(6, 12)

    def test_modinv_negative_input(self):
        m = 97
        inv = modinv(-3 % m, m)
        assert (-3 * inv) % m == 1


class TestJacobiQr:
    def test_jacobi_prime_matches_euler(self):
        p = 103
        for a in range(1, p):
            expected = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
            assert jacobi(a, p) == expected

    def test_jacobi_zero(self):
        assert jacobi(0, 7) == 0
        assert jacobi(21, 7) == 0

    def test_jacobi_even_n_rejected(self):
        with pytest.raises(ParameterError):
            jacobi(3, 8)


class TestGenerators:
    def test_subgroup_generator_order(self):
        p, q = 23, 11
        g = find_subgroup_generator(p, q, DeterministicRng(b"sub"))
        assert pow(g, q, p) == 1
        assert g != 1

    def test_subgroup_requires_divisor(self):
        with pytest.raises(ParameterError):
            find_subgroup_generator(23, 7, DeterministicRng(b"x"))


class TestByteCodec:
    def test_roundtrip(self):
        for value in (0, 1, 255, 256, 2**64, 2**255 - 19):
            assert int.from_bytes(int_to_bytes(value), "big") == value

    def test_zero_is_one_byte(self):
        assert int_to_bytes(0) == b"\x00"

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            int_to_bytes(-1)

"""Tests for the Pohlig-Hellman commutative cipher (paper §3 eq. 6-7)."""

import math

import pytest

from repro.crypto import pohlig_hellman, primes
from repro.crypto.pohlig_hellman import (
    SHORT_EXPONENT_BITS,
    CommutativeKey,
    MessageEncoder,
    PohligHellmanCipher,
    shared_prime,
)
from repro.crypto.rng import DeterministicRng
from repro.errors import ParameterError


@pytest.fixture()
def ciphers(prime64):
    rng = DeterministicRng(b"ph")
    return [PohligHellmanCipher.generate(prime64, rng) for _ in range(3)]


class TestKeyPairs:
    def test_generate_valid(self, prime64, rng):
        cipher = PohligHellmanCipher.generate(prime64, rng)
        assert (cipher.key.e * cipher.key.d) % (prime64 - 1) == 1

    def test_invalid_pair_rejected(self, prime64):
        with pytest.raises(ParameterError):
            CommutativeKey(p=prime64, e=3, d=3)

    def test_roundtrip(self, ciphers, prime64):
        m = 123456789 % prime64
        for cipher in ciphers:
            assert cipher.decrypt(cipher.encrypt(m)) == m

    def test_zero_rejected(self, ciphers):
        with pytest.raises(ParameterError):
            ciphers[0].encrypt(0)


@pytest.fixture(scope="module")
def unsafe_prime300():
    """A 300-bit prime whose (p-1)/2 is composite."""
    rng = DeterministicRng(b"unsafe-prime")
    while True:
        p = primes.random_prime(300, rng)
        if not primes.is_probable_prime((p - 1) // 2, rng=rng):
            return p


def _legacy_exponent(p, seed):
    """The full-range draw every key used before short exponents."""
    rng = DeterministicRng(seed)
    while True:
        e = rng.randrange(3, p - 1) | 1
        if math.gcd(e, p - 1) == 1:
            return e


class TestShortExponents:
    """256-bit ``e`` over large safe primes, full-range ``e`` elsewhere."""

    @pytest.mark.parametrize("bits", [512, 1024])
    def test_large_safe_prime_gets_a_256_bit_exponent(self, bits):
        p = shared_prime(bits)
        rng = DeterministicRng(b"short")
        for _ in range(8):
            key = PohligHellmanCipher.generate(p, rng).key
            assert key.e % 2 == 1
            assert key.e.bit_length() == SHORT_EXPONENT_BITS
            assert (key.e * key.d) % (p - 1) == 1
        # d is whatever the inverse comes out as: the same bijection of Z_p^*.
        assert key.d.bit_length() > bits - 64

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_small_prime_keeps_the_full_range_exponent(self, bits):
        p = shared_prime(bits)
        key = PohligHellmanCipher.generate(p, DeterministicRng(b"small")).key
        assert key.e == _legacy_exponent(p, b"small")

    def test_non_safe_prime_keeps_the_full_range_exponent(self, unsafe_prime300):
        key = PohligHellmanCipher.generate(
            unsafe_prime300, DeterministicRng(b"unsafe")
        ).key
        assert key.e == _legacy_exponent(unsafe_prime300, b"unsafe")
        assert (key.e * key.d) % (unsafe_prime300 - 1) == 1

    def test_safe_prime_check_runs_once_per_modulus(
        self, monkeypatch, prime64, unsafe_prime300
    ):
        calls = []
        real = primes.is_probable_prime

        def counting(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(primes, "is_probable_prime", counting)
        pohlig_hellman._half_is_prime.cache_clear()
        p512 = shared_prime(512)
        rng = DeterministicRng(b"count")
        for p in (p512, unsafe_prime300, prime64, p512, unsafe_prime300, p512):
            PohligHellmanCipher.generate(p, rng)
        assert calls == [(p512 - 1) // 2, (unsafe_prime300 - 1) // 2]

    def test_safe_prime_check_leaves_the_key_stream_alone(self):
        p = shared_prime(512)
        warm = PohligHellmanCipher.generate(p, DeterministicRng(b"stream")).key
        pohlig_hellman._half_is_prime.cache_clear()
        cold = PohligHellmanCipher.generate(p, DeterministicRng(b"stream")).key
        assert cold == warm


class TestCommutativity:
    """Equation 6: any encryption order yields the same ciphertext."""

    def test_two_party(self, ciphers):
        a, b = ciphers[0], ciphers[1]
        m = 987654321
        assert a.encrypt(b.encrypt(m)) == b.encrypt(a.encrypt(m))

    def test_three_party_all_orders(self, ciphers):
        import itertools

        m = 42424242
        results = set()
        for order in itertools.permutations(ciphers):
            value = m
            for cipher in order:
                value = cipher.encrypt(value)
            results.add(value)
        assert len(results) == 1

    def test_decrypt_any_order(self, ciphers):
        a, b, c = ciphers
        m = 31337
        enc = a.encrypt(b.encrypt(c.encrypt(m)))
        assert b.decrypt(a.decrypt(c.decrypt(enc))) == m

    def test_distinct_plaintexts_stay_distinct(self, ciphers):
        """Equation 7: encryption is injective layer by layer."""
        a, b = ciphers[0], ciphers[1]
        seen = set()
        for m in range(2, 200):
            seen.add(a.encrypt(b.encrypt(m)))
        assert len(seen) == 198

    def test_set_helpers(self, ciphers):
        cipher = ciphers[0]
        values = [2, 3, 5, 7]
        assert cipher.decrypt_set(cipher.encrypt_set(values)) == values


class TestMessageEncoder:
    def test_hashed_deterministic(self, prime64):
        enc = MessageEncoder(prime64)
        assert enc.encode_hashed("abc") == enc.encode_hashed("abc")

    def test_hashed_type_separation(self, prime64):
        """'1' (str) and 1 (int) and b'1' must encode differently."""
        enc = MessageEncoder(prime64)
        encodings = {
            enc.encode_hashed("1"),
            enc.encode_hashed(1),
            enc.encode_hashed(b"1"),
            enc.encode_hashed(True),
        }
        assert len(encodings) == 4

    def test_hashed_negative_int(self, prime64):
        enc = MessageEncoder(prime64)
        assert enc.encode_hashed(-5) != enc.encode_hashed(5)

    def test_hashed_lands_in_group(self, prime64):
        enc = MessageEncoder(prime64)
        for value in ("x", "y", 123, b"raw"):
            element = enc.encode_hashed(value)
            assert 0 < element < prime64

    def test_hashed_collision_free_sample(self, prime64):
        enc = MessageEncoder(prime64)
        encodings = {enc.encode_hashed(f"item-{i}") for i in range(2000)}
        assert len(encodings) == 2000

    def test_hashed_spreads_over_the_whole_group_at_1024_bits(self):
        """One SHA-256 digest squared never exceeds 2^512; the counter-mode
        expansion must reach the top of a 1024-bit group."""
        from repro.cache import LruCache

        p = shared_prime(1024)
        values = [f"item-{i}" for i in range(1000)]
        encodings = [MessageEncoder(p).encode_hashed(v) for v in values]
        assert len(set(encodings)) == 1000
        assert all(e > 1 << 900 for e in encodings)
        cached = MessageEncoder(p, cache=LruCache("test.hashed", max_entries=2000))
        assert MessageEncoder(p).encode_hashed_many(values, engine="serial") == encodings
        assert cached.encode_hashed_many(values[:600], engine="serial") == encodings[:600]
        assert cached.encode_hashed_many(values, engine="serial") == encodings
        assert [cached.encode_hashed(v) for v in values[::50]] == encodings[::50]

    def test_unsupported_type(self, prime64):
        with pytest.raises(ParameterError):
            MessageEncoder(prime64).encode_hashed(3.14)

    def test_int_roundtrip(self, prime64):
        enc = MessageEncoder(prime64)
        for value in (0, 1, 2, 1000, prime64 // 4 - 1):
            assert enc.decode_int(enc.encode_int(value)) == value

    def test_int_out_of_range(self, prime64):
        enc = MessageEncoder(prime64)
        with pytest.raises(ParameterError):
            enc.encode_int(-1)
        with pytest.raises(ParameterError):
            enc.encode_int(prime64 // 4)

    def test_int_encoding_survives_encryption(self, prime64, ciphers):
        """Reversible encoding + full encrypt/decrypt cycle recovers ints."""
        enc = MessageEncoder(prime64)
        a, b, c = ciphers
        for value in (0, 7, 99999):
            element = enc.encode_int(value)
            wrapped = c.encrypt(a.encrypt(b.encrypt(element)))
            unwrapped = b.decrypt(c.decrypt(a.decrypt(wrapped)))
            assert enc.decode_int(unwrapped) == value

    def test_small_modulus_rejected(self):
        with pytest.raises(ParameterError):
            MessageEncoder(11)


class TestSharedPrime:
    def test_shape(self):
        p = shared_prime(64)
        assert p.bit_length() == 64


class TestEngineEquivalence:
    """Bulk helpers must be byte-identical regardless of engine."""

    def test_encrypt_decrypt_set_process_matches_serial(self, ciphers):
        from repro.perf.engine import ProcessPoolEngine, SerialEngine

        cipher = ciphers[0]
        values = [2 + 3 * i for i in range(64)]
        serial = SerialEngine()
        with ProcessPoolEngine(workers=2) as pool:
            enc_serial = cipher.encrypt_set(values, engine=serial)
            enc_pool = cipher.encrypt_set(values, engine=pool)
            assert enc_pool == enc_serial
            assert cipher.decrypt_set(enc_pool, engine=pool) == values
            assert cipher.decrypt_set(enc_serial, engine=serial) == values

    def test_set_helpers_accept_spec_string(self, ciphers):
        values = [11, 13, 17]
        expected = [ciphers[0].encrypt(v) for v in values]
        assert ciphers[0].encrypt_set(values, engine="serial") == expected

    def test_encode_hashed_many_matches_scalar(self, prime64):
        from repro.perf.engine import ProcessPoolEngine

        enc = MessageEncoder(prime64)
        values = [f"item-{i}" for i in range(50)] + [0, -4, b"raw", True]
        expected = [enc.encode_hashed(v) for v in values]
        assert enc.encode_hashed_many(values) == expected
        with ProcessPoolEngine(workers=2) as pool:
            assert enc.encode_hashed_many(values, engine=pool) == expected

    def test_encode_hashed_many_empty(self, prime64):
        assert MessageEncoder(prime64).encode_hashed_many([]) == []

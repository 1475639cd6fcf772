"""Property-based tests (hypothesis) for the cryptographic substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.accumulator import AccumulatorParams, OneWayAccumulator
from repro.crypto.modmath import crt, egcd, modinv
from repro.crypto.pohlig_hellman import MessageEncoder, PohligHellmanCipher, shared_prime
from repro.crypto.rng import DeterministicRng
from repro.crypto.shamir import ShamirScheme

PRIME64 = shared_prime(64)
FIELD = 2_147_483_647

_rng = DeterministicRng(b"property-crypto")
CIPHERS = [PohligHellmanCipher.generate(PRIME64, _rng) for _ in range(3)]
ACC = OneWayAccumulator(AccumulatorParams.generate(128, _rng))


class TestModMathProperties:
    @given(a=st.integers(0, 10**9), b=st.integers(0, 10**9))
    def test_egcd_bezout(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        if a and b:
            assert a % g == 0 and b % g == 0

    @given(a=st.integers(1, FIELD - 1))
    def test_modinv_left_right(self, a):
        inv = modinv(a, FIELD)
        assert (a * inv) % FIELD == 1
        assert (inv * a) % FIELD == 1

    @given(r1=st.integers(0, 10), r2=st.integers(0, 12), r3=st.integers(0, 16))
    def test_crt_congruences(self, r1, r2, r3):
        x = crt([r1, r2, r3], [11, 13, 17])
        assert x % 11 == r1 and x % 13 == r2 and x % 17 == r3
        assert 0 <= x < 11 * 13 * 17


class TestPohligHellmanProperties:
    @given(m=st.integers(1, PRIME64 - 1))
    def test_roundtrip(self, m):
        cipher = CIPHERS[0]
        assert cipher.decrypt(cipher.encrypt(m)) == m

    @given(m=st.integers(1, PRIME64 - 1), data=st.data())
    def test_commutativity_random_orders(self, m, data):
        order = data.draw(st.permutations(CIPHERS))
        value_a = m
        for cipher in order:
            value_a = cipher.encrypt(value_a)
        value_b = m
        for cipher in reversed(list(order)):
            value_b = cipher.encrypt(value_b)
        assert value_a == value_b

    @given(m1=st.integers(1, PRIME64 - 1), m2=st.integers(1, PRIME64 - 1))
    def test_injective(self, m1, m2):
        cipher = CIPHERS[1]
        if m1 != m2:
            assert cipher.encrypt(m1) != cipher.encrypt(m2)

    @given(value=st.integers(0, PRIME64 // 4 - 1))
    def test_int_encoding_roundtrip(self, value):
        encoder = MessageEncoder(PRIME64)
        assert encoder.decode_int(encoder.encode_int(value)) == value

    @given(
        left=st.one_of(st.text(max_size=30), st.integers(), st.binary(max_size=30)),
        right=st.one_of(st.text(max_size=30), st.integers(), st.binary(max_size=30)),
    )
    def test_hashed_encoding_equality_faithful(self, left, right):
        encoder = MessageEncoder(PRIME64)
        same = encoder.encode_hashed(left) == encoder.encode_hashed(right)
        assert same == (left == right)


# Large safe primes: every cipher below has a 256-bit encryption exponent and
# a full-length decryption exponent.
SHORT = {
    bits: (
        MessageEncoder(shared_prime(bits)),
        [PohligHellmanCipher.generate(shared_prime(bits), _rng) for _ in range(4)],
    )
    for bits in (512, 1024)
}
_values = st.one_of(st.text(max_size=30), st.integers(), st.binary(max_size=30))


@pytest.mark.parametrize("bits", sorted(SHORT))
class TestShortExponentProperties:
    """Eq. 6-7 hold unchanged when ``e`` is short: same bijection of Z_p^*."""

    @settings(max_examples=15, deadline=None)
    @given(value=_values, small=st.integers(0, 2**64), data=st.data())
    def test_any_order_in_any_order_out(self, bits, value, small, data):
        encoder, ciphers = SHORT[bits]
        encrypt_order = data.draw(st.permutations(ciphers))
        other_order = data.draw(st.permutations(ciphers))
        decrypt_order = data.draw(st.permutations(ciphers))
        for element in (encoder.encode_hashed(value), encoder.encode_int(small)):
            wrapped = element
            for cipher in encrypt_order:
                wrapped = cipher.encrypt(wrapped)
            again = element
            for cipher in other_order:
                again = cipher.encrypt(again)
            assert again == wrapped
            for cipher in decrypt_order:
                wrapped = cipher.decrypt(wrapped)
            assert wrapped == element
        assert encoder.decode_int(wrapped) == small

    @settings(max_examples=15, deadline=None)
    @given(left=_values, right=_values, m1=st.integers(0, 2**64), m2=st.integers(0, 2**64))
    def test_distinct_plaintexts_stay_distinct(self, bits, left, right, m1, m2):
        encoder, ciphers = SHORT[bits]

        def wrap(element):
            for cipher in ciphers:
                element = cipher.encrypt(element)
            return element

        same = wrap(encoder.encode_hashed(left)) == wrap(encoder.encode_hashed(right))
        assert same == (left == right)
        same = wrap(encoder.encode_int(m1)) == wrap(encoder.encode_int(m2))
        assert same == (m1 == m2)


class TestShamirProperties:
    @settings(max_examples=40)
    @given(
        secret=st.integers(0, FIELD - 1),
        k=st.integers(1, 5),
        extra=st.integers(0, 3),
        data=st.data(),
    )
    def test_any_k_shares_reconstruct(self, secret, k, extra, data):
        n = k + extra
        scheme = ShamirScheme(k=k, n=n, p=FIELD)
        shares = scheme.share(secret, DeterministicRng(data.draw(st.integers(0, 999))))
        subset = data.draw(st.permutations(shares))[:k]
        assert scheme.reconstruct(subset) == secret

    @settings(max_examples=30)
    @given(
        secrets=st.lists(st.integers(0, 10**6), min_size=2, max_size=5),
        seed=st.integers(0, 999),
    )
    def test_sum_homomorphism(self, secrets, seed):
        scheme = ShamirScheme(k=3, n=5, p=FIELD)
        rng = DeterministicRng(seed)
        vectors = [scheme.share(s, rng) for s in secrets]
        totals = ShamirScheme.add_shares(vectors)
        assert scheme.reconstruct(totals[:3]) == sum(secrets) % FIELD


class TestAccumulatorProperties:
    @settings(max_examples=200)
    @given(
        bits=st.sampled_from(
            [1, 5, 6, 7, 12, 13, 127, 128, 129, 511, 512, 513, 515, 516, 517, 700]
        ),
        data=st.data(),
    )
    def test_base_power_equals_pow(self, bits, data):
        """The fixed-base table walk is ``pow(x0, e, n)`` at every length:
        window boundaries, digest sizes, the row cap and beyond it."""
        exponent = data.draw(
            st.one_of(
                st.sampled_from([0, 1, 1 << (bits - 1), (1 << bits) - 1]),
                st.integers(0, (1 << bits) - 1),
            )
        )
        assert ACC.base_power(exponent) == pow(ACC.params.x0, exponent, ACC.params.n)

    @settings(max_examples=100)
    @given(
        terms=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([1, ACC.params.n - 1, ACC.params.x0]),
                    st.integers(0, ACC.params.n - 1),
                ),
                st.integers(0, (1 << 64) - 1),
            ),
            max_size=40,
        )
    )
    def test_multi_power_equals_naive_product(self, terms):
        """The bucket multi-exponentiation is the product of ``pow`` calls,
        for the empty list, one base, and bases 0, 1 and ``n - 1``."""
        n = ACC.params.n
        expected = 1
        for base, exponent in terms:
            expected = expected * pow(base, exponent, n) % n
        bases = [base for base, _ in terms]
        assert ACC.multi_power(bases, [e for _, e in terms]) == expected

    @settings(max_examples=30)
    @given(items=st.lists(st.binary(min_size=1, max_size=20), max_size=6))
    def test_accumulate_all_equals_step_chain(self, items):
        chained = ACC.params.x0
        for item in items:
            chained = ACC.step(chained, item)
        assert ACC.accumulate_all(items) == chained

    @settings(max_examples=30)
    @given(
        items=st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_order_invariance(self, items, data):
        shuffled = data.draw(st.permutations(items))
        assert ACC.accumulate_all(items) == ACC.accumulate_all(list(shuffled))

    @settings(max_examples=30)
    @given(
        items=st.lists(
            st.binary(min_size=1, max_size=20), min_size=2, max_size=6, unique=True
        ),
        data=st.data(),
    )
    def test_tamper_always_detected(self, items, data):
        index = data.draw(st.integers(0, len(items) - 1))
        tampered = list(items)
        tampered[index] = tampered[index] + b"\x01"
        if tampered[index] in items:
            return  # collided with another legitimate item; not a tamper
        assert ACC.accumulate_all(items) != ACC.accumulate_all(tampered)

    @settings(max_examples=20)
    @given(
        items=st.lists(
            st.binary(min_size=1, max_size=10), min_size=1, max_size=5, unique=True
        ),
        data=st.data(),
    )
    def test_witness_membership(self, items, data):
        index = data.draw(st.integers(0, len(items) - 1))
        total = ACC.accumulate_all(items)
        witness = ACC.witness(items, index)
        assert ACC.verify_membership(items[index], witness, total)

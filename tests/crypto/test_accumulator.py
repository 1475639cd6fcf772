"""Tests for the one-way accumulator (paper §4.1 eq. 8-9)."""

import itertools
import sys
import threading

import pytest

from repro.crypto import accumulator as accumulator_module
from repro.crypto.accumulator import (
    AccumulatorParams,
    OneWayAccumulator,
    digest_to_exponent,
)
from repro.crypto.rng import DeterministicRng
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def acc():
    params = AccumulatorParams.generate(128, DeterministicRng(b"acc-tests"))
    return OneWayAccumulator(params)


class TestParams:
    def test_generate(self):
        params = AccumulatorParams.generate(64, DeterministicRng(b"p"))
        assert params.n.bit_length() == 64
        assert 1 < params.x0 < params.n - 1

    def test_bad_modulus(self):
        with pytest.raises(ParameterError):
            AccumulatorParams(n=6, x0=2)

    def test_bad_base(self):
        with pytest.raises(ParameterError):
            AccumulatorParams(n=77, x0=1)


class TestDigestToExponent:
    def test_odd_and_sized(self):
        for data in (b"", b"a", b"fragment-bytes"):
            e = digest_to_exponent(data)
            assert e % 2 == 1
            assert e.bit_length() == 128

    def test_distinct(self):
        exps = {digest_to_exponent(f"m{i}".encode()) for i in range(1000)}
        assert len(exps) == 1000

    def test_bits_bounds(self):
        with pytest.raises(ParameterError):
            digest_to_exponent(b"x", bits=8)
        with pytest.raises(ParameterError):
            digest_to_exponent(b"x", bits=300)


class TestQuasiCommutativity:
    """Equation 9: accumulation order does not matter."""

    def test_all_permutations(self, acc):
        items = [b"y1", b"y2", b"y3"]
        values = {
            acc.accumulate_all(list(order))
            for order in itertools.permutations(items)
        }
        assert len(values) == 1

    def test_step_equals_batch(self, acc):
        items = [b"a", b"b", b"c", b"d"]
        stepped = acc.params.x0
        for item in items:
            stepped = acc.step(stepped, item)
        assert stepped == acc.accumulate_all(items)

    def test_verify(self, acc):
        items = [b"f0", b"f1", b"f2"]
        expected = acc.accumulate_all(items)
        assert acc.verify(items, expected)
        assert not acc.verify([b"f0", b"f1", b"TAMPERED"], expected)

    def test_single_bit_change_detected(self, acc):
        base = [b"fragment-0", b"fragment-1"]
        tampered = [b"fragment-0", b"fragment-2"]
        assert acc.accumulate_all(base) != acc.accumulate_all(tampered)

    def test_int_exponents_accepted(self, acc):
        assert acc.accumulate_all([3, 5]) == acc.accumulate_all([5, 3])

    def test_exponent_one_rejected(self, acc):
        with pytest.raises(ParameterError):
            acc.step(acc.params.x0, 1)


class TestWitnesses:
    def test_membership(self, acc):
        items = [b"w0", b"w1", b"w2", b"w3"]
        total = acc.accumulate_all(items)
        for i, item in enumerate(items):
            witness = acc.witness(items, i)
            assert acc.verify_membership(item, witness, total)

    def test_non_membership(self, acc):
        items = [b"w0", b"w1", b"w2"]
        total = acc.accumulate_all(items)
        witness = acc.witness(items, 0)
        assert not acc.verify_membership(b"intruder", witness, total)

    def test_witness_index_bounds(self, acc):
        with pytest.raises(ParameterError):
            acc.witness([b"only"], 1)


class TestWitnessAll:
    def test_matches_per_index_witness(self, acc):
        items = [b"w0", b"w1", b"w2", b"w3", b"w4"]
        all_at_once = acc.witness_all(items)
        assert all_at_once == [acc.witness(items, i) for i in range(len(items))]

    def test_all_verify_against_total(self, acc):
        items = [f"doc-{i}".encode() for i in range(6)]
        total = acc.accumulate_all(items)
        for item, witness in zip(items, acc.witness_all(items)):
            assert acc.verify_membership(item, witness, total)

    def test_engine_equivalence(self, acc):
        from repro.perf.engine import ProcessPoolEngine

        items = [f"doc-{i}".encode() for i in range(8)]
        serial = acc.witness_all(items, engine="serial")
        with ProcessPoolEngine(workers=2) as pool:
            assert acc.witness_all(items, engine=pool) == serial

    def test_empty(self, acc):
        assert acc.witness_all([]) == []

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 16, 21])
    def test_tree_sizes(self, acc, k):
        """The RootFactor tree matches per-index witnesses at every size
        (powers of two, odd counts, and singletons exercise every split)."""
        items = [f"frag-{i}".encode() for i in range(k)]
        assert acc.witness_all(items) == [acc.witness(items, i) for i in range(k)]


class TestProductFolds:
    def test_exponent_product(self, acc):
        from repro.crypto.accumulator import digest_to_exponent

        items = [b"p0", b"p1", b"p2"]
        expected = 1
        for item in items:
            expected *= digest_to_exponent(item)
        assert acc.exponent_product(items) == expected
        assert acc.exponent_product([]) == 1

    def test_fold_product_equals_step_chain(self, acc):
        items = [b"f0", b"f1", b"f2", b"f3"]
        stepped = acc.params.x0
        for item in items:
            stepped = acc.step(stepped, item)
        assert acc.fold_product(acc.params.x0, items) == stepped

    def test_fold_product_order_independent(self, acc):
        a = acc.fold_product(acc.params.x0, [b"x", b"y", b"z"])
        b = acc.fold_product(acc.params.x0, [b"z", b"x", b"y"])
        assert a == b

    def test_step_many_elementwise(self, acc):
        currents = [acc.params.x0, 7, 11]
        items = [b"a", b"b", b"c"]
        assert acc.step_many(currents, items) == [
            acc.step(c, i) for c, i in zip(currents, items)
        ]

    def test_step_many_length_mismatch(self, acc):
        with pytest.raises(ParameterError):
            acc.step_many([acc.params.x0], [b"a", b"b"])

    def test_fold_product_rejects_bad_exponent(self, acc):
        with pytest.raises(ParameterError):
            acc.fold_product(acc.params.x0, [1])


class TestFixedBaseTable:
    """``base_power`` is ``pow(x0, e, n)`` from the window table."""

    WINDOW = accumulator_module._WINDOW_BITS
    CAP_BITS = accumulator_module._MAX_TABLE_ROWS * accumulator_module._WINDOW_BITS

    @staticmethod
    def fresh(bits=256, seed=b"fixed-base"):
        return OneWayAccumulator(
            AccumulatorParams.generate(bits, DeterministicRng(seed))
        )

    def test_boundary_exponents_equal_pow(self):
        acc = self.fresh()
        x0, n = acc.params.x0, acc.params.n
        lengths = {1, self.WINDOW - 1, self.WINDOW, self.WINDOW + 1,
                   127, 128, 129, 511, 512, 513,
                   self.CAP_BITS - 1, self.CAP_BITS, self.CAP_BITS + 1, 2000}
        exponents = [0, 1]
        for bits in lengths:
            exponents += [1 << (bits - 1), (1 << bits) - 1, (1 << bits) - 1 - (1 << bits // 2)]
        for e in exponents:
            assert acc.base_power(e) == pow(x0, e, n), e.bit_length()

    def test_over_the_cap_grows_no_rows(self):
        acc = self.fresh()
        e = 1 << self.CAP_BITS
        assert acc.base_power(e) == pow(acc.params.x0, e, acc.params.n)
        assert acc._table == []

    def test_rows_grow_on_demand_and_stop_at_the_cap(self):
        acc = self.fresh()
        acc.base_power((1 << 128) - 1)
        rows_for_128_bits = -(-128 // self.WINDOW)
        assert len(acc._table) == rows_for_128_bits
        cap = accumulator_module._MAX_TABLE_ROWS
        assert acc.build_base_table() == cap - rows_for_128_bits
        assert len(acc._table) == cap
        assert acc.build_base_table() == 0
        assert acc.build_base_table(10**6) == 0

    def test_accumulate_all_is_the_step_chain_and_the_recorded_vector(self):
        # Recorded on the commit before the table existed (4 pow calls).
        acc = OneWayAccumulator(AccumulatorParams(
            n=0xA6481B3087B76A677230B1A225DDA0FABD9A08C883FEDBBDD5E780E34B1F59E3,
            x0=0x1F295A9D480713BE9B76C7E6376AE3179D5D8840189877271E6806F943B49B46,
        ))
        items = [b"frag-P0", b"frag-P1", b"frag-P2", b"frag-P3"]
        chained = acc.params.x0
        for item in items:
            chained = acc.step(chained, item)
        assert acc.accumulate_all(items) == chained == (
            0x6D154B20CC32C5B08C4AA1682667CD790A4EF0E4627D211A52A5BE7C0132F610
        )
        # Five 128-bit items are over the row cap: still the same chain.
        assert acc.accumulate_all(items + [b"frag-P4"]) == acc.step(chained, b"frag-P4")
        assert acc.accumulate_all([]) == acc.params.x0

    def test_threads_racing_the_first_use(self):
        exponents = [digest_to_exponent(b"race-%d" % i) ** (1 + i % 4) for i in range(64)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(5):
                acc = self.fresh(seed=b"race-%d" % attempt)
                expected = [pow(acc.params.x0, e, acc.params.n) for e in exponents]
                barrier = threading.Barrier(8)
                results = [None] * 8

                def work(slot):
                    barrier.wait(timeout=10)
                    results[slot] = [acc.base_power(e) for e in exponents]

                threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert all(result == expected for result in results)
                # No row appended twice: row j is x0^(d * 2^(6j)).
                longest = max(e.bit_length() for e in exponents)
                assert len(acc._table) == -(-longest // self.WINDOW)
                for j, row in enumerate(acc._table):
                    assert len(row) == 1 << self.WINDOW
                    assert row[1] == pow(
                        acc.params.x0, 1 << (self.WINDOW * j), acc.params.n
                    )
        finally:
            sys.setswitchinterval(previous)

    def test_table_size_within_documented_bound(self):
        # docs/perf.md: at most 0.5 MB at the shipped 256-bit modulus.
        acc = self.fresh()
        acc.build_base_table()
        size = sum(
            sys.getsizeof(row) + sum(sys.getsizeof(value) for value in row)
            for row in acc._table
        ) + sys.getsizeof(acc._table)
        assert size <= 512 * 1024


def naive_product(bases, exponents, n):
    product = 1 % n
    for base, exponent in zip(bases, exponents):
        product = product * pow(base, exponent, n) % n
    return product


class TestMultiPower:
    """``multi_power`` is the product of per-base ``pow`` calls."""

    def test_empty_list_is_one(self, acc):
        assert acc.multi_power([], []) == 1

    def test_one_base(self, acc):
        n = acc.params.n
        for exponent in (0, 1, 2, 63, (1 << 64) - 1):
            assert acc.multi_power([acc.params.x0], [exponent]) == pow(
                acc.params.x0, exponent, n
            )

    def test_bases_one_and_n_minus_one(self, acc):
        n = acc.params.n
        bases = [1, n - 1, n - 1, 1, acc.params.x0]
        exponents = [(1 << 64) - 1, 3, 5, 7, 1 << 63]
        assert acc.multi_power(bases, exponents) == naive_product(bases, exponents, n)
        assert acc.multi_power([n - 1], [3]) == n - 1
        assert acc.multi_power([n - 1, n - 1], [3, 5]) == 1

    @pytest.mark.parametrize("count", [2, 15, 16, 17, 100, 700])
    def test_matches_naive_product(self, acc, count):
        rng = DeterministicRng(f"multi:{count}")
        n = acc.params.n
        bases = [rng.randrange(1, n) for _ in range(count)]
        exponents = [rng.randrange(0, 1 << 64) | 1 for _ in range(count)]
        assert acc.multi_power(bases, exponents) == naive_product(bases, exponents, n)

    def test_window_grows_with_the_batch(self):
        windows = [accumulator_module._pippenger_window(k, 64) for k in (1, 16, 256, 4600)]
        assert windows == sorted(windows) and windows[0] < windows[-1]

    def test_rejects_mismatched_and_negative(self, acc):
        with pytest.raises(ParameterError):
            acc.multi_power([2, 3], [5])
        with pytest.raises(ParameterError):
            acc.multi_power([2, 3], [5, -1])
        with pytest.raises(ParameterError):
            acc.multi_power([2, 3], [0, -1])

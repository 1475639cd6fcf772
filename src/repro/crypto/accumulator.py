"""One-way quasi-commutative accumulator (paper §4.1, eq. 8-9, refs [26][27]).

The construction is Benaloh-de Mare's: over an RSA modulus ``n`` with
unknown factorization,

    A(x, y) = x^y mod n.

Accumulating a multiset of values ``y_1 .. y_k`` into a base ``x_0`` gives
``x_0^(y_1 * ... * y_k) mod n`` — independent of order (eq. 9), which is the
property the DLA integrity cross-check exploits: each DLA node folds in the
digest of its own fragment as the token circulates the ring, and the final
value matches the application node's precomputed accumulator no matter which
ring order was used.

Accumulated values must be odd integers > 1 (even exponents interact with
the group structure; we map arbitrary byte strings through SHA-256 and force
the low bit).  The modulus generator (the credential authority in the DLA
architecture) must discard the factorization.

Every fold that starts at the public base — the write path's per-record
anchor, the integrity ring's first hop, the in-process checker — is
``x0^e mod n`` for one fixed ``x0``, so the accumulator keeps a
*fixed-base window table* for it (:meth:`OneWayAccumulator.base_power`):
row ``j`` holds ``x0^(d·2^(6j))`` for every 6-bit digit ``d``, and the
power is one table lookup and one modular multiplication per digit of the
exponent, with no squarings.  See ``docs/perf.md`` "Fixed-base
accumulator" for the shape and the memory bound.

The in-process checker confirms many anchors at once with a product of
powers ``Π b_i^(e_i) mod n`` over short exponents
(:meth:`OneWayAccumulator.multi_power`), which Pippenger's bucket method
computes with about one modular multiplication per base and window.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from repro.crypto import primes
from repro.crypto.rng import system_rng
from repro.errors import ParameterError
from repro.obs.tracer import NOOP_TRACER
from repro.perf.engine import resolve_engine

__all__ = ["AccumulatorParams", "OneWayAccumulator", "digest_to_exponent"]

# Fixed-base table shape: radix-2^6 digits, at most 86 rows — 516 bits,
# the product of four 128-bit digest exponents.  86 rows x 64 entries of a
# 256-bit modulus are about 0.4 MB; a longer exponent falls back to ``pow``.
_WINDOW_BITS = 6
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
_MAX_TABLE_ROWS = 86


def _pippenger_window(count: int, bits: int) -> int:
    """The bucket width that minimises :meth:`OneWayAccumulator.multi_power`'s
    multiplications: per window, one per base plus two per bucket."""
    return min(
        range(1, 17),
        key=lambda c: -(-bits // c) * (count + (2 << c)),
    )


def digest_to_exponent(data: bytes, bits: int = 128) -> int:
    """Map arbitrary bytes to an odd exponent of about ``bits`` bits.

    SHA-256 based; the forced-odd low bit keeps exponents in the units and
    cannot merge two distinct digests (they would have to differ only in
    the bit we force, which SHA-256 output does with probability 2^-255).
    """
    if bits < 16 or bits > 256:
        raise ParameterError("exponent size must be in [16, 256] bits")
    h = hashlib.sha256(b"acc-exp:" + data).digest()
    value = int.from_bytes(h, "big") >> (256 - bits)
    return value | 1 | (1 << (bits - 1))


@dataclass(frozen=True)
class AccumulatorParams:
    """Public parameters: RSA modulus ``n`` and agreed base ``x0``.

    The paper requires ``n`` (product of two primes) and ``x0`` to be agreed
    in advance by the application and DLA subsystems.
    """

    n: int
    x0: int

    def __post_init__(self) -> None:
        if self.n < 15:
            raise ParameterError("modulus too small for an accumulator")
        if not 1 < self.x0 < self.n - 1:
            raise ParameterError("base x0 must satisfy 1 < x0 < n-1")

    @classmethod
    def generate(cls, bits: int = 256, rng=None) -> "AccumulatorParams":
        """Generate fresh parameters, discarding the factorization."""
        rng = rng or system_rng()
        n, _p, _q = primes.rsa_modulus(bits, rng=rng)
        x0 = rng.randrange(2, n - 1)
        return cls(n=n, x0=x0)


class OneWayAccumulator:
    """Stateful accumulator over fixed :class:`AccumulatorParams`.

    Examples
    --------
    >>> params = AccumulatorParams(n=3233 * 5, x0=42)  # doctest: +SKIP
    >>> acc = OneWayAccumulator(params)
    >>> a = acc.accumulate_all([b"frag0", b"frag1", b"frag2"])
    >>> b = acc.accumulate_all([b"frag2", b"frag0", b"frag1"])
    >>> a == b
    True
    """

    def __init__(self, params: AccumulatorParams, tracer=None) -> None:
        self.params = params
        self.tracer = tracer or NOOP_TRACER
        # Fixed-base table for x0, grown a row at a time under the lock;
        # readers walk the rows that exist without taking it.
        self._table: list[list[int]] = []
        self._next_row_base = params.x0  # x0^(2^(6·len(_table)))
        self._table_lock = threading.Lock()

    def base_power(self, exponent: int) -> int:
        """``pow(x0, exponent, n)`` from the fixed-base window table.

        One lookup and one modular multiplication per 6-bit digit of
        ``exponent`` — bitwise equal to ``pow``, several times cheaper for
        the 128- to 512-bit exponents the folds from ``x0`` use.  Rows are
        built the first time an exponent needs them; an exponent beyond the
        row cap (or a negative one) is handed to ``pow``.
        """
        rows_needed = -(-exponent.bit_length() // _WINDOW_BITS)
        if exponent < 0 or rows_needed > _MAX_TABLE_ROWS:
            return pow(self.params.x0, exponent, self.params.n)
        if rows_needed > len(self._table):
            self.build_base_table(rows_needed)
        n = self.params.n
        value = 1
        for row in self._table:
            value = value * row[exponent & _WINDOW_MASK] % n
            exponent >>= _WINDOW_BITS
            if not exponent:
                break
        return value

    def multi_power(self, bases: list[int], exponents: list[int]) -> int:
        """``Π bases[i]^exponents[i] mod n`` by Pippenger's bucket method.

        Each ``c``-bit window of the exponents drops every base into the
        bucket of its digit (one multiplication per base), then folds the
        buckets with a running product (two per bucket) so that bucket
        ``d`` ends up raised to ``d``; the windows are joined by ``c``
        squarings each.  ``c`` minimises that count for the batch size
        and the longest exponent.  Bitwise equal to the product of
        ``pow`` calls; exponents must be non-negative.
        """
        if len(bases) != len(exponents):
            raise ParameterError(
                f"base count {len(bases)} != exponent count {len(exponents)}"
            )
        if min(exponents, default=0) < 0:
            raise ParameterError("multi_power exponents must be non-negative")
        n = self.params.n
        bits = max(exponents, default=0).bit_length()
        if bits == 0:
            return 1 % n
        window = _pippenger_window(len(bases), bits)
        mask = (1 << window) - 1
        result = 1
        for shift in range(window * ((bits - 1) // window), -1, -window):
            for _ in range(window):
                result = result * result % n
            buckets = [1] * (mask + 1)
            for base, exponent in zip(bases, exponents):
                digit = exponent >> shift & mask
                if digit:
                    buckets[digit] = buckets[digit] * base % n
            running = total = 1
            for digit in range(mask, 0, -1):
                bucket = buckets[digit]
                if bucket != 1:
                    running = running * bucket % n
                if running != 1:
                    total = total * running % n
            result = result * total % n
        return result

    def build_base_table(self, rows: int = _MAX_TABLE_ROWS) -> int:
        """Grow the table to ``rows`` rows (the cap by default); returns
        how many rows this call built."""
        n = self.params.n
        with self._table_lock:
            missing = max(0, min(rows, _MAX_TABLE_ROWS) - len(self._table))
            for _ in range(missing):
                base = self._next_row_base
                row = [1]
                for _ in range(_WINDOW_MASK):
                    row.append(row[-1] * base % n)
                self._next_row_base = row[-1] * base % n
                # Appended only when complete: a concurrent reader never
                # sees a partial row.
                self._table.append(row)
            return missing

    def step(self, current: int, item: bytes | int) -> int:
        """One application of eq. 8: ``A(current, y) = current^y mod n``."""
        return pow(current, self._exponent_for(item), self.params.n)

    def accumulate_all(self, items: list[bytes | int]) -> int:
        """Fold every item into the base, any order-equivalent.

        One :meth:`base_power` of the pre-multiplied exponents,
        value-identical to the :meth:`step` chain (eq. 9).
        """
        with self.tracer.span("acc.accumulate", {"items": len(items)}):
            return self.base_power(self.exponent_product(items))

    def witness(self, items: list[bytes | int], index: int) -> int:
        """Membership witness for ``items[index]``: the accumulator of all
        *other* items.  ``step(witness, items[index]) == accumulate_all(items)``.

        Costs one exponentiation: the chain ``(((x0^e_a)^e_b)...)`` equals
        ``x0`` raised to the pre-multiplied exponent product (eq. 9), so
        the per-item chain collapses into a single :meth:`base_power`.
        """
        if not 0 <= index < len(items):
            raise ParameterError(f"index {index} out of range")
        return self.base_power(
            self.exponent_product(items[:index] + items[index + 1:])
        )

    def _exponent_for(self, item: bytes | int) -> int:
        exponent = item if isinstance(item, int) else digest_to_exponent(item)
        if exponent <= 1:
            raise ParameterError("accumulated exponents must exceed 1")
        return exponent

    def exponent_product(self, items: list[bytes | int]) -> int:
        """Plain integer product of the items' digest exponents.

        Public integers — no group-order reduction exists (or is needed)
        for an RSA modulus of unknown factorization, so the product is
        exact and ``pow(base, exponent_product(items), n)`` equals the
        item-by-item :meth:`step` chain.
        """
        product = 1
        for item in items:
            product *= self._exponent_for(item)
        return product

    def fold_product(self, current: int, items: list[bytes | int]) -> int:
        """Fold every item into ``current`` with a single ``pow``.

        Value-identical to repeated :meth:`step` (eq. 9); the batched
        integrity ring uses this to collapse one hop's k fragment folds
        into one exponentiation.
        """
        return pow(current, self.exponent_product(items), self.params.n)

    def step_many(
        self, currents: list[int], items: list[bytes | int], engine=None
    ) -> list[int]:
        """Element-wise :meth:`step` over aligned lists, engine-routed."""
        if len(currents) != len(items):
            raise ParameterError(
                f"value count {len(currents)} != item count {len(items)}"
            )
        exponents = [self._exponent_for(item) for item in items]
        return resolve_engine(engine).pow_many(currents, exponents, self.params.n)

    def witness_all(self, items: list[bytes | int], engine=None) -> list[int]:
        """Membership witnesses for *every* item at once.

        Witness ``i`` is ``x0`` raised to the product of all other items'
        exponents; exponentiation by the pre-multiplied product equals the
        per-item chain (``(x^a)^b = x^(a·b) mod n``, eq. 9), so each
        result is identical to :meth:`witness`.

        Computed with the divide-and-conquer *RootFactor* subset-product
        tree: the root holds ``x0`` over all k exponents; each node
        covering exponent range ``[lo, hi)`` spawns a left child raised to
        the product of the *right* half and vice versa, until the leaves
        — exactly the k witnesses — remain.  Each of the ``log k`` levels
        costs ``2^d`` modexps whose exponents total ~k small exponents, so
        the whole tree is O(k log k) small-exponent work where the naive
        per-index chains (or the prefix/suffix construction's k pows with
        ~k-fold exponents) cost O(k²).  Every level's pows are batched
        through the exponentiation engine, so wide levels fan out across
        workers.
        """
        with self.tracer.span(
            "acc.witness_all",
            {"items": len(items), "engine": resolve_engine(engine).name},
        ):
            return self._witness_all(items, engine)

    def _witness_all(self, items: list[bytes | int], engine=None) -> list[int]:
        exponents = [self._exponent_for(item) for item in items]
        k = len(exponents)
        if k == 0:
            return []
        engine = resolve_engine(engine)
        n = self.params.n
        # Balanced product tree over exponent ranges (plain integer
        # products: public exponents, no group-order reduction exists for
        # an RSA modulus of unknown factorization).  Built once, read at
        # every descent level.
        products: dict[tuple[int, int], int] = {}

        def build(lo: int, hi: int) -> int:
            if hi - lo == 1:
                products[(lo, hi)] = exponents[lo]
            else:
                mid = (lo + hi) // 2
                products[(lo, hi)] = build(lo, mid) * build(mid, hi)
            return products[(lo, hi)]

        build(0, k)

        witnesses = [0] * k
        frontier: list[tuple[int, int, int]] = [(self.params.x0, 0, k)]
        while frontier:
            bases: list[int] = []
            powers: list[int] = []
            spans: list[tuple[int, int]] = []
            for value, lo, hi in frontier:
                if hi - lo == 1:
                    witnesses[lo] = value
                    continue
                mid = (lo + hi) // 2
                # Left child excludes the right half's exponents and vice
                # versa — descending to a leaf excludes everything but it.
                bases.append(value)
                powers.append(products[(mid, hi)])
                spans.append((lo, mid))
                bases.append(value)
                powers.append(products[(lo, mid)])
                spans.append((mid, hi))
            if not bases:
                break
            level = engine.pow_many(bases, powers, n)
            frontier = [
                (value, lo, hi) for value, (lo, hi) in zip(level, spans)
            ]
        return witnesses

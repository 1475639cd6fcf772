"""Deterministic cryptographic-style random number generation.

The protocols in this library are *randomized*: key generation, Shamir
coefficients, blinding factors, nonces.  For a research reproduction we need
two properties simultaneously:

* unpredictability good enough that protocol transcripts look like the
  paper's (no accidental structure), and
* **reproducibility** — a test or benchmark seeded with the same value must
  generate the same keys, shares and nonces every run.

Python's :mod:`secrets` gives the first but not the second; :mod:`random`
gives the second but its Mersenne Twister output is distinguishable.  We use
a small HMAC-SHA256 counter construction (an HMAC_DRBG reduced to the parts
we need): seeded, forward-secure enough for tests, and fast.

Use :func:`system_rng` for callers that want OS entropy and do not care
about reproducibility.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from repro.errors import ConfigurationError

_BLOCK_BITS = 256


class DeterministicRng:
    """HMAC-SHA256 counter DRBG with the subset of the ``random.Random``
    interface the library needs.

    Parameters
    ----------
    seed:
        Any bytes or int or str.  Two instances with equal seeds produce
        identical streams.
    """

    def __init__(self, seed: int | bytes | str = 0) -> None:
        if isinstance(seed, int):
            if seed < 0:
                seed = -seed * 2 + 1
            seed_bytes = seed.to_bytes((seed.bit_length() + 8) // 8, "big")
        elif isinstance(seed, str):
            seed_bytes = seed.encode("utf-8")
        elif isinstance(seed, bytes):
            seed_bytes = seed
        else:
            raise ConfigurationError(f"unsupported seed type: {type(seed)!r}")
        self._key = hashlib.sha256(b"repro-drbg-key:" + seed_bytes).digest()
        self._counter = 0

    def _next_block(self) -> bytes:
        block = hmac.new(
            self._key, self._counter.to_bytes(16, "big"), hashlib.sha256
        ).digest()
        self._counter += 1
        return block

    def getrandbits(self, k: int) -> int:
        """Return a uniform integer with at most ``k`` random bits."""
        if k < 0:
            raise ConfigurationError("number of bits must be non-negative")
        if k == 0:
            return 0
        blocks_needed = (k + _BLOCK_BITS - 1) // _BLOCK_BITS
        raw = b"".join(self._next_block() for _ in range(blocks_needed))
        value = int.from_bytes(raw, "big")
        excess = blocks_needed * _BLOCK_BITS - k
        return value >> excess

    def randbytes(self, n: int) -> bytes:
        """Return ``n`` uniform random bytes."""
        if n < 0:
            raise ConfigurationError("byte count must be non-negative")
        return self.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def randbelow(self, upper: int) -> int:
        """Return a uniform integer in ``[0, upper)`` by rejection sampling."""
        if upper <= 0:
            raise ConfigurationError("upper bound must be positive")
        k = upper.bit_length()
        while True:
            candidate = self.getrandbits(k)
            if candidate < upper:
                return candidate

    def randrange(self, start: int, stop: int | None = None) -> int:
        """Return a uniform integer in ``[start, stop)`` (or ``[0, start)``)."""
        if stop is None:
            start, stop = 0, start
        if stop <= start:
            raise ConfigurationError(f"empty range [{start}, {stop})")
        return start + self.randbelow(stop - start)

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range ``[low, high]``."""
        return self.randrange(low, high + 1)

    def choice(self, seq):
        """Return a uniform element of a non-empty sequence."""
        if not seq:
            raise ConfigurationError("cannot choose from an empty sequence")
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle of ``items`` in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def random(self) -> float:
        """Return a float in ``[0, 1)`` with 53 bits of precision."""
        return self.getrandbits(53) / (1 << 53)

    def spawn(self, label: str) -> "DeterministicRng":
        """Derive an independent child stream tied to ``label``.

        Protocol components each take their own spawned stream so that
        adding a random draw in one component does not shift every other
        component's stream (which would invalidate recorded test vectors).
        """
        child = object.__new__(DeterministicRng)
        child._key = hmac.new(
            self._key, b"spawn:" + label.encode("utf-8"), hashlib.sha256
        ).digest()
        child._counter = 0
        return child


class SystemRng(DeterministicRng):
    """OS-entropy RNG with the same interface as :class:`DeterministicRng`."""

    def __init__(self) -> None:  # noqa: D107 - interface matches base
        super().__init__(0)

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ConfigurationError("number of bits must be non-negative")
        if k == 0:
            return 0
        return secrets.randbits(k)

    def spawn(self, label: str) -> "SystemRng":
        return SystemRng()


def system_rng() -> SystemRng:
    """Return a fresh OS-entropy RNG (non-reproducible)."""
    return SystemRng()

"""Pohlig-Hellman commutative encryption (paper §3, eq. 6-7, ref [21]).

The cipher encrypts a message ``M`` in ``Z_p^*`` as ``C = M^e mod p`` and
decrypts with ``M = C^d mod p`` where ``e*d ≡ 1 (mod p-1)``.  Because
exponentiation composes multiplicatively,

    E_a(E_b(M)) = M^(e_a * e_b) = E_b(E_a(M)),

any set of parties sharing the prime ``p`` can encrypt a message in *any*
order and decrypt it with the matching keys in *any* order — the property
eq. 6 requires.  Equation 7 (distinct plaintexts stay distinct) holds because
``x -> x^e`` is a bijection of ``Z_p^*``.

Two subtleties the paper glosses over, handled here:

* **Plaintext domain.**  Log attribute values are arbitrary bytes/strings,
  not group elements.  :class:`MessageEncoder` hashes values into
  ``Z_p^*`` (quadratic-residue subgroup for safe primes, so the image lies
  in a prime-order group and small-subgroup leakage is avoided).  Hash
  encoding is one-way; the secure set protocols only ever need equality of
  encodings, never inversion — parties that hold the plaintext candidate
  set re-encode to match.  A reversible integer encoder is also provided
  for numeric payloads that must be recovered (secure union).
* **Key hygiene.**  Exponents are sampled odd and coprime to ``p - 1``.
  When ``p`` is a verified safe prime ``p = 2q + 1`` of more than 257
  bits, the encryption exponent ``e`` is a random odd 256-bit integer
  (top bit set): the hashed plaintexts live in the prime-order subgroup
  of quadratic residues, where recovering a 256-bit exponent costs
  2^128 group operations (Pollard lambda) — at or above the strength of
  the group itself for every ``p`` up to 3072 bits — and ``pow`` is
  linear in exponent bits.  ``d = e^-1 mod (p - 1)`` comes out full
  length, so the cipher is the same bijection of ``Z_p^*``.  Any other
  modulus keeps a full-range ``e``: short exponents in a group whose
  order has small factors leak exponent bits (van Oorschot-Wiener).
  See ``docs/threat-model.md``, "Short exponents".
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from repro.crypto import primes
from repro.crypto.modmath import int_to_bytes, jacobi, modinv
from repro.crypto.rng import DeterministicRng, system_rng
from repro.errors import ConfigurationError, ParameterError
from repro.perf.engine import resolve_engine

__all__ = [
    "SHORT_EXPONENT_BITS",
    "CommutativeKey",
    "PohligHellmanCipher",
    "MessageEncoder",
    "shared_prime",
]


#: Length of the encryption exponent over a large safe prime: twice the
#: 128-bit strength a square-root discrete-log attack has to overcome.
SHORT_EXPONENT_BITS = 256
_SHORT_EXPONENT_TOP_BIT = 1 << (SHORT_EXPONENT_BITS - 1)


def shared_prime(bits: int = 256, rng=None, fresh: bool = False) -> int:
    """Return a safe prime suitable as the cluster-wide cipher modulus."""
    return primes.safe_prime(bits, rng=rng, fresh=fresh)


@functools.lru_cache(maxsize=128)
def _half_is_prime(p: int) -> bool:
    """Whether ``(p - 1) / 2`` is prime: about fifty modexps, so memoised.

    Uses its own fixed witness stream — the protocol RNG is never touched,
    so a key stream does not depend on who asked first.
    """
    return primes.is_probable_prime(
        (p - 1) // 2, rng=DeterministicRng(b"safe-prime-check")
    )


@dataclass(frozen=True)
class CommutativeKey:
    """An (e, d) exponent pair for a fixed prime modulus ``p``.

    ``e * d ≡ 1 (mod p - 1)``, so ``(M^e)^d ≡ M (mod p)``.
    """

    p: int
    e: int
    d: int

    def __post_init__(self) -> None:
        if (self.e * self.d) % (self.p - 1) != 1:
            raise ParameterError("e*d != 1 mod p-1: not a valid key pair")


class PohligHellmanCipher:
    """Commutative cipher bound to one key pair.

    Instances are cheap; every DLA node builds one per protocol run.

    Examples
    --------
    >>> from repro.crypto.rng import DeterministicRng
    >>> rng = DeterministicRng(7)
    >>> p = shared_prime(64)
    >>> a = PohligHellmanCipher.generate(p, rng)
    >>> b = PohligHellmanCipher.generate(p, rng)
    >>> m = 123456789
    >>> a.encrypt(b.encrypt(m)) == b.encrypt(a.encrypt(m))
    True
    >>> a.decrypt(b.decrypt(b.encrypt(a.encrypt(m)))) == m
    True
    """

    def __init__(self, key: CommutativeKey) -> None:
        self.key = key

    @classmethod
    def generate(cls, p: int, rng=None) -> "PohligHellmanCipher":
        """Generate a fresh key pair for prime modulus ``p``.

        ``e`` is odd (coprime to the factor 2 of ``p - 1``): 256 bits
        with the top bit set over a large safe prime, full-range over
        any other modulus (see "Key hygiene" in the module docstring).
        """
        rng = rng or system_rng()
        order = p - 1
        # A short e needs (p-1)/2 to be a prime longer than e: then every
        # odd 256-bit e is coprime to p-1 and the squares have prime order.
        short = p.bit_length() > SHORT_EXPONENT_BITS + 1 and _half_is_prime(p)
        while True:
            if short:
                e = rng.getrandbits(SHORT_EXPONENT_BITS) | _SHORT_EXPONENT_TOP_BIT | 1
            else:
                e = rng.randrange(3, order) | 1
            try:
                d = modinv(e, order)
            except ParameterError:
                continue
            return cls(CommutativeKey(p=p, e=e, d=d))

    def _check_element(self, value: int) -> int:
        value %= self.key.p
        if value == 0:
            raise ParameterError("0 is not in Z_p^* and cannot be encrypted")
        return value

    def encrypt(self, m: int) -> int:
        """Encrypt a group element: ``C = M^e mod p``."""
        return pow(self._check_element(m), self.key.e, self.key.p)

    def decrypt(self, c: int) -> int:
        """Decrypt a group element: ``M = C^d mod p``."""
        return pow(self._check_element(c), self.key.d, self.key.p)

    def encrypt_set(self, values: list[int], engine=None) -> list[int]:
        """Encrypt every element of a list (order preserved).

        ``engine`` is an :class:`~repro.perf.engine.ExponentiationEngine`
        (or spec); ``None`` uses the process-wide default.  Every engine
        returns results identical to serial per-element encryption.
        """
        checked = [self._check_element(v) for v in values]
        return resolve_engine(engine).pow_many(checked, self.key.e, self.key.p)

    def decrypt_set(self, values: list[int], engine=None) -> list[int]:
        """Decrypt every element of a list (order preserved)."""
        checked = [self._check_element(v) for v in values]
        return resolve_engine(engine).pow_many(checked, self.key.d, self.key.p)


class MessageEncoder:
    """Encode application values into the cipher's plaintext domain.

    Two encodings:

    * :meth:`encode_hashed` — SHA-256 (counter mode, ``|p| + 64`` bits or
      more) the canonical byte form of the value, reduce into ``Z_p^*``
      and square (for a safe prime the squares form
      the prime-order subgroup of quadratic residues).  One-way; collision
      probability is negligible for |p| >= 64 bits relative to set sizes
      here.  This is what the secure set intersection uses: equality of
      encodings <=> equality of values.
    * :meth:`encode_int` / :meth:`decode_int` — reversible encoding for
      integers in ``[0, p//4)`` as the quadratic residue of ``±(v + 2)``;
      used when the plaintext must be recovered after full decryption
      (secure set union).

    ``p`` must be ``3 (mod 4)`` (every safe prime above 7 is); any other
    prime raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, p: int) -> None:
        if p < 17:
            raise ParameterError("modulus too small to encode messages")
        if p % 4 != 3:
            # -1 must be a non-residue, or encode_int cannot hide Jacobi symbols.
            raise ConfigurationError(f"commutative-cipher prime must be 3 mod 4, got {p}")
        self.p = p
        self._hash_blocks = -(-(p.bit_length() + 64) // 256)  # SHA-256 digests

    def _canonical_bytes(self, value) -> bytes:
        if isinstance(value, bytes):
            return b"b:" + value
        if isinstance(value, str):
            return b"s:" + value.encode("utf-8")
        if isinstance(value, bool):
            return b"o:" + (b"1" if value else b"0")
        if isinstance(value, int):
            sign = b"-" if value < 0 else b"+"
            return b"i:" + sign + int_to_bytes(abs(value))
        raise ParameterError(f"cannot canonically encode {type(value)!r}")

    def _hash_to_unit(self, value) -> int:
        """Hash a value into ``Z_p^* \\ {1, p-1}`` (pre-squaring).

        SHA-256 in counter mode, stretched to at least 64 bits more than
        ``p`` before reducing, so the result is within 2^-64 of uniform
        on ``Z_p`` whatever the size of ``p`` — one digest alone would
        make every 512+-bit "group element" the integer square of a
        256-bit number.
        """
        data = self._canonical_bytes(value)
        counter = 0
        while True:
            stream = b"".join(
                hashlib.sha256(data + (counter + i).to_bytes(4, "big")).digest()
                for i in range(self._hash_blocks)
            )
            x = int.from_bytes(stream, "big") % self.p
            if x not in (0, 1, self.p - 1):
                return x
            counter += self._hash_blocks

    def encode_hashed(self, value) -> int:
        """One-way encoding of an arbitrary value into the QR subgroup."""
        return pow(self._hash_to_unit(value), 2, self.p)

    def encode_hashed_many(self, values, engine=None) -> list[int]:
        """Bulk :meth:`encode_hashed` (order preserved).

        Hashing is cheap; the squarings route through the exponentiation
        engine.  Element-wise equal to ``[encode_hashed(v) for v in values]``.
        """
        units = [self._hash_to_unit(v) for v in values]
        return resolve_engine(engine).pow_many(units, 2, self.p)

    def encode_int(self, value: int) -> int:
        """Reversible encoding of a small non-negative integer.

        ``x = value + 2`` keeps 0 (not a group element) and 1 (a fixed
        point of exponentiation) out of the plaintexts.  The result is
        whichever of ``x`` and ``p - x`` is a quadratic residue: for
        ``p ≡ 3 (mod 4)`` (every safe prime above 7) ``-1`` is a
        non-residue, so exactly one of the two is.  A residue's every
        power is one, so a relay that reads Jacobi symbols off ``∪ₛ``
        ciphertexts reads 1 for every element, whatever its plaintext.
        Squaring, as :meth:`encode_hashed` does, would make decoding
        ambiguous; the sign choice costs no modexp.
        """
        if value < 0 or value >= self.p // 4:
            raise ParameterError(
                f"reversible encoding requires 0 <= value < p//4, got {value}"
            )
        x = value + 2
        return x if jacobi(x, self.p) == 1 else self.p - x

    def decode_int(self, element: int) -> int:
        """Inverse of :meth:`encode_int`: ``p - y`` folds back to ``y``."""
        if element > self.p // 2:
            element = self.p - element
        value = element - 2
        if value < 0 or value >= self.p // 4:
            raise ParameterError(f"element {element} is not a valid int encoding")
        return value

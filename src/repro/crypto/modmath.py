"""Modular-arithmetic helpers shared by every cryptographic module.

All group operations in the library happen in ``Z_p`` (prime field) or
``Z_n`` (RSA-style composite).  Python's built-in ``pow`` does modular
exponentiation; this module adds inverses, egcd, Jacobi symbols and
subgroup-generator search so higher layers never hand-roll number theory.
"""

from __future__ import annotations

from repro.errors import ParameterError


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises
    ------
    ParameterError
        If ``a`` is not invertible mod ``m`` (``gcd(a, m) != 1``).
    """
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ParameterError(f"{a} is not invertible modulo {m} (gcd={g})")
    return x % m


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``; returns -1, 0 or 1."""
    if n <= 0 or n % 2 == 0:
        raise ParameterError("Jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def find_subgroup_generator(p: int, q: int, rng) -> int:
    """Find a generator of the order-``q`` subgroup of ``Z_p^*``.

    Requires ``q`` to divide ``p - 1``.  The returned element has exact
    order ``q`` (used for Schnorr groups and Pedersen commitments).
    """
    if (p - 1) % q:
        raise ParameterError("q must divide p - 1")
    cofactor = (p - 1) // q
    while True:
        h = rng.randrange(2, p - 1)
        g = pow(h, cofactor, p)
        if g != 1:
            return g


def int_to_bytes(value: int) -> bytes:
    """Minimal big-endian encoding of a non-negative integer (0 -> b'\\x00')."""
    if value < 0:
        raise ParameterError("cannot encode a negative integer")
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")

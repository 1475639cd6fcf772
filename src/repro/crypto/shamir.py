"""Shamir (k, n) secret sharing over a prime field (paper §3.5).

The paper's secure sum builds on each node ``P_i`` choosing a random
polynomial ``f_i`` of degree ``k-1`` with ``f_i(0) = a_i`` and sending the
evaluation ``s_ij = f_i(x_j)`` to node ``P_j``.  Summing received shares
gives every node one share of ``F(z) = Σ f_i(z)``, whose free coefficient is
the sum of the secrets.  Any ``k`` shares reconstruct ``F`` by Lagrange
interpolation.

This module provides the polynomial machinery: share generation and
Lagrange reconstruction of the constant term.  The secure sum
(:mod:`repro.smc.sum_`) adds and weights share values itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.modmath import modinv
from repro.crypto.rng import system_rng
from repro.errors import ParameterError, SecretSharingError, ThresholdError

__all__ = ["Share", "ShamirScheme"]


@dataclass(frozen=True)
class Share:
    """One evaluation point ``(x, y)`` of a sharing polynomial mod ``p``."""

    x: int
    y: int
    p: int


class ShamirScheme:
    """A (k, n) threshold sharing scheme over ``Z_p``.

    Parameters
    ----------
    k:
        Reconstruction threshold (minimum shares needed).
    n:
        Number of shares issued.
    p:
        Prime field modulus; must exceed every secret and ``n``.
    xs:
        Optional fixed evaluation points (the paper has the nodes
        predetermine non-zero ``x_0 .. x_{n-1}``); defaults to ``1..n``.
    """

    def __init__(self, k: int, n: int, p: int, xs: list[int] | None = None) -> None:
        if k < 1:
            raise ParameterError("threshold k must be at least 1")
        if n < k:
            raise ParameterError(f"need n >= k shares, got n={n} < k={k}")
        if p <= n:
            raise ParameterError("field must be larger than the share count")
        if xs is None:
            xs = list(range(1, n + 1))
        if len(xs) != n:
            raise ParameterError(f"expected {n} evaluation points, got {len(xs)}")
        reduced = [x % p for x in xs]
        if 0 in reduced:
            raise ParameterError("evaluation points must be non-zero mod p")
        if len(set(reduced)) != n:
            raise ParameterError("evaluation points must be distinct mod p")
        self.k = k
        self.n = n
        self.p = p
        self.xs = reduced

    def random_polynomial(self, secret: int, rng=None) -> list[int]:
        """Coefficients ``[a_0 .. a_{k-1}]`` with ``a_0 = secret``."""
        rng = rng or system_rng()
        secret %= self.p
        return [secret] + [rng.randbelow(self.p) for _ in range(self.k - 1)]

    def evaluate(self, coeffs: list[int], x: int) -> int:
        """Horner evaluation of a coefficient list at ``x`` mod ``p``."""
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def share(self, secret: int, rng=None) -> list[Share]:
        """Split ``secret`` into ``n`` shares, any ``k`` of which recover it."""
        coeffs = self.random_polynomial(secret, rng)
        return [Share(x, self.evaluate(coeffs, x), self.p) for x in self.xs]

    def reconstruct(self, shares: list[Share]) -> int:
        """Recover the secret (``f(0)``) from at least ``k`` shares.

        Uses the Lagrange basis evaluated at zero only, which is O(k^2)
        instead of full interpolation's O(k^2) with larger constants.
        """
        if len(shares) < self.k:
            raise ThresholdError(
                f"need at least {self.k} shares, got {len(shares)}"
            )
        subset = shares[: self.k]
        xs = [s.x % self.p for s in subset]
        if len(set(xs)) != len(xs):
            raise SecretSharingError("duplicate evaluation points in shares")
        if any(s.p != self.p for s in subset):
            raise SecretSharingError("shares come from a different field")
        secret = 0
        for i, s_i in enumerate(subset):
            num, den = 1, 1
            for j, s_j in enumerate(subset):
                if i == j:
                    continue
                num = (num * (-s_j.x)) % self.p
                den = (den * (s_i.x - s_j.x)) % self.p
            secret = (secret + s_i.y * num * modinv(den, self.p)) % self.p
        return secret

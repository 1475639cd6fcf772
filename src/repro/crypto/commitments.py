"""Pedersen commitments over a Schnorr group.

Used by the evidence-chain subsystem (paper §4.2) as the binding mechanism
behind r-binding / x-binding of service terms: a joining node commits to its
service-commitment attributes; the commitment is embedded in the evidence
piece; opening it later (on dispute) reveals the terms, and the binding
property means the node cannot claim different terms after the fact.

Pedersen commitments are perfectly hiding and computationally binding under
the discrete-log assumption in the order-``q`` subgroup of ``Z_p^*``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto import primes
from repro.crypto.modmath import find_subgroup_generator
from repro.crypto.rng import system_rng
from repro.errors import ParameterError

__all__ = ["PedersenParams", "Commitment", "PedersenCommitter"]


@dataclass(frozen=True)
class PedersenParams:
    """Group parameters ``(p, q, g, h)`` with ``h = g^x`` for unknown ``x``.

    ``p = 2q + 1`` a safe prime; ``g`` and ``h`` generate the order-``q``
    subgroup.  Generated by a party trusted not to keep ``log_g h`` (the
    credential authority), or by hashing into the group (as here) so nobody
    knows the discrete log.
    """

    p: int
    q: int
    g: int
    h: int

    def __post_init__(self) -> None:
        if (self.p - 1) % self.q:
            raise ParameterError("q must divide p-1")
        for name, gen in (("g", self.g), ("h", self.h)):
            if not 1 < gen < self.p:
                raise ParameterError(f"{name} out of range")
            if pow(gen, self.q, self.p) != 1:
                raise ParameterError(f"{name} is not in the order-q subgroup")
        if self.g == self.h:
            raise ParameterError("g and h must be independent generators")

    @classmethod
    def generate(cls, bits: int = 256, rng=None) -> "PedersenParams":
        """Generate parameters with ``h`` derived by hashing (nothing-up-my-sleeve)."""
        rng = rng or system_rng()
        p = primes.safe_prime(bits, rng=rng)
        q = (p - 1) // 2
        g = find_subgroup_generator(p, q, rng)
        # Derive h by hashing g so that log_g(h) is unknown to everyone.
        counter = 0
        while True:
            seed = hashlib.sha256(
                b"pedersen-h:" + g.to_bytes((p.bit_length() + 7) // 8, "big")
                + counter.to_bytes(4, "big")
            ).digest()
            candidate = pow(int.from_bytes(seed, "big") % p, 2, p)  # into QR = subgroup
            if candidate not in (0, 1, g):
                return cls(p=p, q=q, g=g, h=candidate)
            counter += 1


@dataclass(frozen=True)
class Commitment:
    """A commitment value ``c = g^m * h^r mod p`` (opening held separately)."""

    value: int


class PedersenCommitter:
    """Commit/open interface over fixed :class:`PedersenParams`."""

    def __init__(self, params: PedersenParams, rng=None) -> None:
        self.params = params
        self._rng = rng or system_rng()

    def message_to_scalar(self, message: bytes | int) -> int:
        """Map a message into ``Z_q`` (hash for bytes, reduce for ints)."""
        if isinstance(message, int):
            return message % self.params.q
        digest = hashlib.sha256(b"pedersen-m:" + message).digest()
        return int.from_bytes(digest, "big") % self.params.q

    def commit(self, message: bytes | int, blinding: int | None = None) -> tuple[Commitment, int]:
        """Commit to ``message``; returns ``(commitment, blinding)``.

        The caller stores the blinding factor to open later.
        """
        m = self.message_to_scalar(message)
        r = self._rng.randbelow(self.params.q) if blinding is None else blinding % self.params.q
        c = (
            pow(self.params.g, m, self.params.p)
            * pow(self.params.h, r, self.params.p)
        ) % self.params.p
        return Commitment(c), r

    def verify(self, commitment: Commitment, message: bytes | int, blinding: int) -> bool:
        """Check that ``(message, blinding)`` opens ``commitment``."""
        m = self.message_to_scalar(message)
        expected = (
            pow(self.params.g, m, self.params.p)
            * pow(self.params.h, blinding % self.params.q, self.params.p)
        ) % self.params.p
        return expected == commitment.value

"""Schnorr signatures over a safe-prime group.

The DLA design needs plain signatures in several places the paper mentions
in passing: tickets signed by the credential authority, threshold signatures
on audit reports (built on these in :mod:`repro.crypto.threshold`), and the
blind variant (:mod:`repro.crypto.blind`) behind the e-coin evidence pieces.

Standard Fiat-Shamir Schnorr: key ``y = g^x``, signature on ``msg`` is
``(c, s)`` with ``c = H(g^k || y || msg)`` and ``s = k - c*x mod q``;
verification recomputes ``R' = g^s * y^c`` and checks ``H(R' || y || msg) == c``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto import primes
from repro.crypto.modmath import find_subgroup_generator
from repro.crypto.rng import system_rng
from repro.errors import ParameterError

__all__ = ["SchnorrGroup", "SchnorrKeyPair", "SchnorrSignature", "SchnorrSigner"]


@dataclass(frozen=True)
class SchnorrGroup:
    """Public group parameters ``(p, q, g)``; ``g`` has order ``q`` in ``Z_p^*``."""

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if (self.p - 1) % self.q:
            raise ParameterError("q must divide p-1")
        if not 1 < self.g < self.p or pow(self.g, self.q, self.p) != 1:
            raise ParameterError("g is not an order-q element")

    @classmethod
    def generate(cls, bits: int = 256, rng=None) -> "SchnorrGroup":
        rng = rng or system_rng()
        p = primes.safe_prime(bits, rng=rng)
        q = (p - 1) // 2
        g = find_subgroup_generator(p, q, rng)
        return cls(p=p, q=q, g=g)

    def hash_to_scalar(self, *parts: bytes | int) -> int:
        """Fiat-Shamir hash of group elements / bytes into ``Z_q``."""
        h = hashlib.sha256()
        for part in parts:
            if isinstance(part, int):
                part = part.to_bytes((part.bit_length() + 8) // 8, "big")
            h.update(len(part).to_bytes(4, "big"))
            h.update(part)
        return int.from_bytes(h.digest(), "big") % self.q

    def random_scalar(self, rng) -> int:
        return rng.randrange(1, self.q)


@dataclass(frozen=True)
class SchnorrKeyPair:
    """Private ``x`` and public ``y = g^x mod p``."""

    group: SchnorrGroup
    x: int
    y: int

    @classmethod
    def generate(cls, group: SchnorrGroup, rng=None) -> "SchnorrKeyPair":
        rng = rng or system_rng()
        x = group.random_scalar(rng)
        return cls(group=group, x=x, y=pow(group.g, x, group.p))


@dataclass(frozen=True)
class SchnorrSignature:
    """A Fiat-Shamir Schnorr signature ``(c, s)``."""

    c: int
    s: int


class SchnorrSigner:
    """Sign/verify interface bound to a group."""

    def __init__(self, group: SchnorrGroup, rng=None) -> None:
        self.group = group
        self._rng = rng or system_rng()

    def sign(self, key: SchnorrKeyPair, message: bytes) -> SchnorrSignature:
        """Produce a signature on ``message`` with private key ``key.x``."""
        g = self.group
        k = g.random_scalar(self._rng)
        r = pow(g.g, k, g.p)
        c = g.hash_to_scalar(r, key.y, message)
        s = (k - c * key.x) % g.q
        return SchnorrSignature(c=c, s=s)

    def verify(self, public_y: int, message: bytes, sig: SchnorrSignature) -> bool:
        """Return True iff ``sig`` is a valid signature on ``message`` by ``public_y``."""
        g = self.group
        if not (0 <= sig.c < g.q and 0 <= sig.s < g.q):
            return False
        r_prime = (pow(g.g, sig.s, g.p) * pow(public_y, sig.c, g.p)) % g.p
        return g.hash_to_scalar(r_prime, public_y, message) == sig.c

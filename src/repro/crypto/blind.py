"""Blind Schnorr signatures — the e-coin engine for evidence pieces.

Paper §4.2 builds anonymous-yet-authenticated DLA membership on an e-coin
scheme (ref [30]): the credential authority signs a node's logging/auditing
token *blindly*, so the token is unforgeable (only the authority can sign)
yet unlinkable (the authority cannot connect the token it later sees to the
signing session — anonymity).  We implement the classic blind Schnorr
protocol:

  signer:  k ← Z_q,  R = g^k                          → user
  user:    α, β ← Z_q,  R' = R · g^α · y^β,
           c' = H(R' ‖ y ‖ msg),  c = c' - β           → signer
  signer:  s = k - c·x                                 → user
  user:    s' = s + α;  signature is (c', s')

The unblinded ``(c', s')`` verifies exactly like an ordinary Schnorr
signature, and the signer's view ``(R, c, s)`` is statistically independent
of ``(c', s')``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.schnorr import SchnorrGroup, SchnorrKeyPair, SchnorrSignature
from repro.crypto.rng import system_rng
from repro.errors import ProtocolAbortError

__all__ = ["BlindSigner", "BlindingClient", "BlindSession"]


@dataclass
class BlindSession:
    """Signer-side state for one blind-signature issuance."""

    k: int
    r: int
    used: bool = False


class BlindSigner:
    """The credential authority's side of blind issuance."""

    def __init__(self, group: SchnorrGroup, key: SchnorrKeyPair, rng=None) -> None:
        self.group = group
        self.key = key
        self._rng = rng or system_rng()

    def start(self) -> tuple[BlindSession, int]:
        """Phase 1: commit to a nonce; send ``R = g^k`` to the user."""
        g = self.group
        k = g.random_scalar(self._rng)
        r = pow(g.g, k, g.p)
        return BlindSession(k=k, r=r), r

    def respond(self, session: BlindSession, blinded_challenge: int) -> int:
        """Phase 3: answer the blinded challenge with ``s = k - c·x mod q``."""
        if session.used:
            raise ProtocolAbortError("blind-signature session already consumed")
        session.used = True
        return (session.k - blinded_challenge * self.key.x) % self.group.q


class BlindingClient:
    """The joining node's side: blind, receive, unblind, verify."""

    def __init__(self, group: SchnorrGroup, signer_public_y: int, rng=None) -> None:
        self.group = group
        self.signer_public_y = signer_public_y
        self._rng = rng or system_rng()
        self._alpha: int | None = None
        self._beta: int | None = None
        self._c_prime: int | None = None

    def challenge(self, signer_r: int, message: bytes) -> int:
        """Phase 2: blind the signer's nonce commitment and derive the challenge."""
        g = self.group
        self._alpha = g.random_scalar(self._rng)
        self._beta = g.random_scalar(self._rng)
        g_alpha = pow(g.g, self._alpha, g.p)
        y_beta = pow(self.signer_public_y, self._beta, g.p)
        r_prime = (signer_r * g_alpha * y_beta) % g.p
        self._c_prime = g.hash_to_scalar(r_prime, self.signer_public_y, message)
        # Sign convention here is s = k - c·x with verification
        # R' = g^s · y^c, so the blinded challenge is c = c' - β:
        #   g^(s+α) · y^(c') = R · g^α · y^(c' - c) = R · g^α · y^β = R'.
        return (self._c_prime - self._beta) % g.q

    def unblind(self, signer_s: int) -> SchnorrSignature:
        """Phase 4: unblind the response into a standard Schnorr signature."""
        if self._alpha is None or self._c_prime is None:
            raise ProtocolAbortError("challenge() must run before unblind()")
        s_prime = (signer_s + self._alpha) % self.group.q
        return SchnorrSignature(c=self._c_prime, s=s_prime)

"""Credential authority: anonymous-yet-verifiable DLA credentials (§4.2).

"After a node P_x is granted a logging/auditing token t from the credential
authority, it is given unforgeable authority to engage in the logging and
auditing services."

The token must be **unforgeable** (only the authority can mint one) yet
**anonymous** (the authority cannot link a token it later sees to the
issuance session).  Classic e-coin construction: the node generates a
*pseudonym* key pair, has the authority **blind-sign** the pseudonym's
public key, and thereafter acts under the pseudonym.  ``g(t) = 1``
(Figure 7's token check) is signature verification under the authority's
public key.

For accountability the node also deposits an *identity escrow*: a Pedersen
commitment to its real identity, stored inside every evidence piece it
signs (the x-binding of ref [30]).  Honest nodes never open it; proven
misconduct obliges opening, and refusing to open is itself the proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.blind import BlindingClient, BlindSigner
from repro.crypto.commitments import Commitment, PedersenCommitter, PedersenParams
from repro.crypto.rng import system_rng
from repro.crypto.schnorr import (
    SchnorrGroup,
    SchnorrKeyPair,
    SchnorrSignature,
    SchnorrSigner,
)
from repro.errors import EvidenceError
from repro.obs.tracer import NOOP_TRACER

__all__ = ["AuditToken", "NodeCredentials", "CredentialAuthority"]


def _int_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 8) // 8, "big")


@dataclass(frozen=True)
class AuditToken:
    """The anonymous logging/auditing token ``t``.

    ``pseudonym`` is the node's operating public key; ``signature`` is the
    authority's (blind-issued) Schnorr signature over it.
    """

    pseudonym: int
    signature: SchnorrSignature

    def message(self) -> bytes:
        return b"dla-token:" + _int_bytes(self.pseudonym)


@dataclass
class NodeCredentials:
    """Everything one node holds after enrolment.

    ``identity_opening`` is secret: the blinding that opens
    ``identity_commitment`` to the real identity.  It leaves the node only
    on proven misconduct.
    """

    real_id: str
    pseudonym_key: SchnorrKeyPair
    token: AuditToken
    identity_commitment: Commitment
    identity_opening: int

    @property
    def pseudonym(self) -> int:
        return self.pseudonym_key.y


class CredentialAuthority:
    """Mints anonymous audit tokens and arbitrates identity escrow."""

    def __init__(self, group: SchnorrGroup | None = None, rng=None,
                 tracer=None) -> None:
        self._rng = rng or system_rng()
        # Enrolment work records a span at the authority's node.  The span
        # carries no identities — linking an enrolment session to a real
        # id is exactly what blind issuance prevents, and tracing must not
        # reopen that channel.
        self.tracer = tracer or NOOP_TRACER
        self.group = group or SchnorrGroup.generate(256, self._rng)
        self.key = SchnorrKeyPair.generate(self.group, self._rng)
        self.pedersen = PedersenParams.generate(256, self._rng.spawn("pedersen"))
        self._signer = SchnorrSigner(self.group, self._rng)
        self._blind = BlindSigner(self.group, self.key, self._rng.spawn("blind"))
        self.enrolled: set[str] = set()

    # -- enrolment -------------------------------------------------------------

    def enroll(self, real_id: str, rng=None) -> NodeCredentials:
        """Full enrolment of a node: pseudonym, blind token, identity escrow.

        The authority authenticates ``real_id`` out-of-band (modeled by the
        call itself), blind-signs the pseudonym so it cannot link the token
        back, and records that ``real_id`` enrolled (it may enrol once).
        """
        if real_id in self.enrolled:
            raise EvidenceError(f"{real_id!r} already holds a token")
        rng = rng or self._rng.spawn(f"enroll:{real_id}")
        with self.tracer.span("node.authority.enroll", {"node": "authority"}):
            pseudonym_key = SchnorrKeyPair.generate(self.group, rng)

            # Blind issuance: the authority signs without seeing the pseudonym.
            client = BlindingClient(
                self.group, self.key.y, rng=rng.spawn("blinding")
            )
            session, commitment_r = self._blind.start()
            token_message = b"dla-token:" + _int_bytes(pseudonym_key.y)
            challenge = client.challenge(commitment_r, token_message)
            response = self._blind.respond(session, challenge)
            signature = client.unblind(response)
            token = AuditToken(pseudonym=pseudonym_key.y, signature=signature)
            if not self.verify_token(token):
                raise EvidenceError("blind issuance produced an invalid token")

            committer = PedersenCommitter(self.pedersen, rng.spawn("escrow"))
            identity_commitment, opening = committer.commit(real_id.encode("utf-8"))
        self.enrolled.add(real_id)
        return NodeCredentials(
            real_id=real_id,
            pseudonym_key=pseudonym_key,
            token=token,
            identity_commitment=identity_commitment,
            identity_opening=opening,
        )

    # -- verification ------------------------------------------------------------

    def verify_token(self, token: AuditToken) -> bool:
        """Figure 7's ``g(t) = 1`` check."""
        return self._signer.verify(self.key.y, token.message(), token.signature)

    def expose_identity(
        self, commitment: Commitment, claimed_id: str, opening: int
    ) -> bool:
        """Misconduct arbitration: does the escrow open to ``claimed_id``?"""
        committer = PedersenCommitter(self.pedersen)
        return committer.verify(commitment, claimed_id.encode("utf-8"), opening)

    def signer(self) -> SchnorrSigner:
        """A verifier bound to the authority's group (for evidence checks)."""
        return SchnorrSigner(self.group)

"""Undeniable evidence pieces and the membership evidence chain (Figure 6).

"When P_x and P_y agree to let P_x become a new member of the DLA cluster,
a piece of unforgeable evidence will be created between them ... The
service terms can be bound into the new piece of evidence between P_x and
P_y using the r-binding and x-binding techniques."

An :class:`EvidencePiece` binds, under *both* parties' pseudonym
signatures:

* the inviter's and invitee's audit tokens (authority-minted, anonymous);
* the negotiated policy proposal (PP) and service commitment (SC) —
  **r-binding**: the terms are committed with a Pedersen commitment whose
  opening both parties hold, so neither can later claim different terms;
* the invitee's identity escrow commitment — **x-binding**: misconduct
  forces the opening, deanonymizing exactly the misbehaving party.

The chain property (Figure 6): evidence pieces form a linked list
``e_1 → e_2 → ...`` where the invitee of ``e_i`` is the inviter of
``e_{i+1}``.  Invitation *authority transfers* with each piece — a node
that invites twice produces two pieces with the same inviter and index,
a contradiction any verifier can detect (:func:`find_double_invitations`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.cluster.authority import AuditToken, CredentialAuthority, NodeCredentials
from repro.crypto.commitments import Commitment, PedersenCommitter
from repro.crypto.schnorr import SchnorrSignature, SchnorrSigner
from repro.errors import EvidenceError

__all__ = [
    "ServiceTerms",
    "EvidencePiece",
    "EvidenceChain",
    "make_evidence",
    "verify_evidence",
    "find_double_invitations",
]


@dataclass(frozen=True)
class ServiceTerms:
    """The negotiated logging/auditing attributes of a membership.

    ``proposal`` is P_y's PP (services requested / policies imposed);
    ``commitment`` is P_x's SC ("the list of services that P_x is willing
    to provide").
    """

    proposal: tuple[str, ...]
    commitment: tuple[str, ...]

    def canonical_bytes(self) -> bytes:
        body = {"pp": list(self.proposal), "sc": list(self.commitment)}
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class EvidencePiece:
    """One unforgeable link of the membership chain."""

    index: int                      # position in the chain (1-based)
    inviter_token: AuditToken
    invitee_token: AuditToken
    terms: ServiceTerms
    terms_commitment: Commitment    # r-binding anchor
    terms_opening: int              # held by both parties (kept with the piece here)
    invitee_escrow: Commitment      # x-binding anchor
    inviter_signature: SchnorrSignature
    invitee_signature: SchnorrSignature

    def signed_body(self) -> bytes:
        """The bytes both signatures cover (everything but the signatures)."""
        body = {
            "index": self.index,
            "inviter": format(self.inviter_token.pseudonym, "x"),
            "invitee": format(self.invitee_token.pseudonym, "x"),
            "terms_commitment": format(self.terms_commitment.value, "x"),
            "escrow": format(self.invitee_escrow.value, "x"),
        }
        return b"dla-evidence:" + json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode()


def make_evidence(
    authority: CredentialAuthority,
    inviter: NodeCredentials,
    invitee: NodeCredentials,
    terms: ServiceTerms,
    index: int,
    rng=None,
) -> EvidencePiece:
    """Create and cross-sign one evidence piece (both parties in-process).

    The networked three-phase creation lives in :mod:`repro.cluster.join`;
    this helper is the trusted-path equivalent used by tests and by chain
    bootstrapping (the founding node's self-evidence).
    """
    committer = PedersenCommitter(authority.pedersen, rng)
    terms_commitment, opening = committer.commit(terms.canonical_bytes())
    draft = EvidencePiece(
        index=index,
        inviter_token=inviter.token,
        invitee_token=invitee.token,
        terms=terms,
        terms_commitment=terms_commitment,
        terms_opening=opening,
        invitee_escrow=invitee.identity_commitment,
        inviter_signature=SchnorrSignature(0, 0),
        invitee_signature=SchnorrSignature(0, 0),
    )
    signer = SchnorrSigner(authority.group, rng)
    body = draft.signed_body()
    return EvidencePiece(
        index=draft.index,
        inviter_token=draft.inviter_token,
        invitee_token=draft.invitee_token,
        terms=draft.terms,
        terms_commitment=draft.terms_commitment,
        terms_opening=draft.terms_opening,
        invitee_escrow=draft.invitee_escrow,
        inviter_signature=signer.sign(inviter.pseudonym_key, body),
        invitee_signature=signer.sign(invitee.pseudonym_key, body),
    )


def verify_evidence(
    authority: CredentialAuthority, piece: EvidencePiece
) -> None:
    """Figure 7's ``f(..., e) = 1``: full validity check of one piece.

    Raises :class:`EvidenceError` with the failing aspect.
    """
    if not authority.verify_token(piece.inviter_token):
        raise EvidenceError(f"evidence {piece.index}: inviter token invalid")
    if not authority.verify_token(piece.invitee_token):
        raise EvidenceError(f"evidence {piece.index}: invitee token invalid")
    committer = PedersenCommitter(authority.pedersen)
    if not committer.verify(
        piece.terms_commitment, piece.terms.canonical_bytes(), piece.terms_opening
    ):
        raise EvidenceError(
            f"evidence {piece.index}: service terms do not match their "
            "r-binding commitment"
        )
    signer = authority.signer()
    body = piece.signed_body()
    if not signer.verify(piece.inviter_token.pseudonym, body, piece.inviter_signature):
        raise EvidenceError(f"evidence {piece.index}: inviter signature invalid")
    if not signer.verify(piece.invitee_token.pseudonym, body, piece.invitee_signature):
        raise EvidenceError(f"evidence {piece.index}: invitee signature invalid")


class EvidenceChain:
    """The cluster's membership ledger: a verified list of evidence pieces."""

    def __init__(self, authority: CredentialAuthority) -> None:
        self.authority = authority
        self.pieces: list[EvidencePiece] = []

    def append(self, piece: EvidencePiece) -> None:
        """Verify and append; enforces linkage and authority transfer."""
        verify_evidence(self.authority, piece)
        expected_index = len(self.pieces) + 1
        if piece.index != expected_index:
            raise EvidenceError(
                f"evidence index {piece.index} out of order "
                f"(expected {expected_index})"
            )
        if self.pieces:
            last = self.pieces[-1]
            if piece.inviter_token.pseudonym != last.invitee_token.pseudonym:
                raise EvidenceError(
                    "invitation authority violation: inviter of piece "
                    f"{piece.index} is not the latest member"
                )
        self.pieces.append(piece)

    @property
    def current_inviter(self) -> int | None:
        """The only pseudonym currently holding invitation authority."""
        if not self.pieces:
            return None
        return self.pieces[-1].invitee_token.pseudonym

    def verify_all(self) -> None:
        """Re-verify the entire chain (e.g. on receipt from a peer)."""
        replay = EvidenceChain(self.authority)
        for piece in self.pieces:
            replay.append(piece)


def find_double_invitations(pieces: list[EvidencePiece]) -> list[int]:
    """Detect authority-transfer violations across *any* collection of
    evidence pieces (including ones a cheater tried to keep off-ledger).

    Returns the pseudonyms that appear as inviter in more than one piece —
    "P_y can no longer invite other new nodes ... Doing so will subject
    P_y to exposure of its true identity and its misconduct."
    """
    seen: dict[int, int] = {}
    cheaters = []
    for piece in pieces:
        pseudonym = piece.inviter_token.pseudonym
        seen[pseudonym] = seen.get(pseudonym, 0) + 1
    for pseudonym, count in seen.items():
        if count > 1:
            cheaters.append(pseudonym)
    return sorted(cheaters)

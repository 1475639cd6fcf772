"""Cluster membership management over the evidence chain (Figure 6).

:class:`DlaMembership` is the cluster-level view: the founder, the evidence
chain, who currently holds invitation authority, and the misconduct
workflow (detect double invitation → demand identity-escrow opening →
expose the cheater's real identity through the credential authority).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.authority import CredentialAuthority, NodeCredentials
from repro.cluster.evidence import (
    EvidenceChain,
    EvidencePiece,
    ServiceTerms,
    find_double_invitations,
    make_evidence,
)
from repro.errors import EvidenceError, MembershipError

__all__ = ["DlaMembership", "MisconductReport"]


@dataclass(frozen=True)
class MisconductReport:
    """Outcome of arbitrating a double-invitation accusation."""

    cheater_pseudonym: int
    exposed_real_id: str | None   # None if the cheater refused to open
    refused_to_open: bool


class DlaMembership:
    """The DLA cluster's membership ledger and its rules."""

    def __init__(self, authority: CredentialAuthority, founder: NodeCredentials) -> None:
        self.authority = authority
        self.founder = founder
        self.chain = EvidenceChain(authority)
        self._by_pseudonym: dict[int, str] = {founder.pseudonym: "member-1"}

    @property
    def size(self) -> int:
        return 1 + len(self.chain.pieces)

    @property
    def current_inviter_pseudonym(self) -> int:
        latest = self.chain.current_inviter
        return latest if latest is not None else self.founder.pseudonym

    def admit(self, piece: EvidencePiece) -> None:
        """Admit a member through a verified evidence piece.

        Enforces that the piece's inviter is the current authority holder.
        """
        if piece.inviter_token.pseudonym != self.current_inviter_pseudonym:
            raise MembershipError(
                "evidence inviter does not hold the invitation authority"
            )
        self.chain.append(piece)
        self._by_pseudonym[piece.invitee_token.pseudonym] = f"member-{self.size}"

    def admit_direct(
        self,
        inviter: NodeCredentials,
        invitee: NodeCredentials,
        proposal: list[str],
        services: list[str],
        rng=None,
    ) -> EvidencePiece:
        """Trusted-path admission (both credential sets in-process)."""
        terms = ServiceTerms(proposal=tuple(proposal), commitment=tuple(services))
        piece = make_evidence(
            self.authority,
            inviter,
            invitee,
            terms,
            index=len(self.chain.pieces) + 1,
            rng=rng,
        )
        self.admit(piece)
        return piece

    def verify(self) -> None:
        """Re-verify the whole chain (a node joining late does this)."""
        self.chain.verify_all()

    # -- misconduct ----------------------------------------------------------

    def audit_for_double_invitation(
        self, extra_pieces: list[EvidencePiece]
    ) -> list[int]:
        """Detect inviters who spent their authority more than once.

        ``extra_pieces`` are pieces presented by third parties (a cheater's
        counterparties) that are not on the canonical chain.
        """
        return find_double_invitations(list(self.chain.pieces) + list(extra_pieces))

    def arbitrate(
        self,
        cheater_pseudonym: int,
        escrow_pieces: list[EvidencePiece],
        claimed_id: str | None,
        opening: int | None,
    ) -> MisconductReport:
        """Resolve an accusation: demand the escrow opening, verify it.

        The cheater's identity commitment is found in the evidence piece
        where it *joined* (it was the invitee).  A refusal (``opening is
        None``) is itself undeniable evidence of misconduct.
        """
        escrow = None
        for piece in escrow_pieces:
            if piece.invitee_token.pseudonym == cheater_pseudonym:
                escrow = piece.invitee_escrow
                break
        if escrow is None:
            raise EvidenceError(
                "no evidence piece carries the accused pseudonym's escrow"
            )
        if opening is None or claimed_id is None:
            return MisconductReport(
                cheater_pseudonym=cheater_pseudonym,
                exposed_real_id=None,
                refused_to_open=True,
            )
        if not self.authority.expose_identity(escrow, claimed_id, opening):
            raise EvidenceError(
                "escrow opening does not match the claimed identity"
            )
        return MisconductReport(
            cheater_pseudonym=cheater_pseudonym,
            exposed_real_id=claimed_id,
            refused_to_open=False,
        )

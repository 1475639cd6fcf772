"""Tests for the credential authority and evidence pieces (§4.2)."""

import dataclasses

import pytest

from repro.cluster.authority import CredentialAuthority
from repro.cluster.evidence import (
    EvidenceChain,
    ServiceTerms,
    find_double_invitations,
    make_evidence,
    verify_evidence,
)
from repro.crypto import DeterministicRng
from repro.errors import EvidenceError


@pytest.fixture(scope="module")
def authority(schnorr_group):
    return CredentialAuthority(schnorr_group, DeterministicRng(b"ca-tests"))


@pytest.fixture(scope="module")
def nodes(authority):
    return {name: authority.enroll(f"{name}.real") for name in ("a", "b", "c", "d")}


class TestTokens:
    def test_tokens_verify(self, authority, nodes):
        for creds in nodes.values():
            assert authority.verify_token(creds.token)

    def test_forged_token_rejected(self, authority, nodes):
        token = nodes["a"].token
        forged = dataclasses.replace(token, pseudonym=token.pseudonym + 1)
        assert not authority.verify_token(forged)

    def test_double_enrolment_rejected(self, authority):
        with pytest.raises(EvidenceError):
            authority.enroll("a.real")

    def test_pseudonym_differs_from_identity(self, nodes):
        creds = nodes["a"]
        assert str(creds.pseudonym) != creds.real_id

    def test_identity_escrow_opens_correctly(self, authority, nodes):
        creds = nodes["a"]
        assert authority.expose_identity(
            creds.identity_commitment, "a.real", creds.identity_opening
        )
        assert not authority.expose_identity(
            creds.identity_commitment, "zz.real", creds.identity_opening
        )


class TestEvidencePieces:
    @pytest.fixture()
    def piece(self, authority, nodes, rng):
        terms = ServiceTerms(proposal=("store:Time",), commitment=("store:Time",))
        return make_evidence(authority, nodes["a"], nodes["b"], terms, index=1, rng=rng)

    def test_valid_piece_verifies(self, authority, piece):
        verify_evidence(authority, piece)

    def test_terms_tamper_detected(self, authority, piece):
        forged = dataclasses.replace(
            piece, terms=ServiceTerms(("store:Time",), ("everything",))
        )
        with pytest.raises(EvidenceError, match="r-binding"):
            verify_evidence(authority, forged)

    def test_signature_tamper_detected(self, authority, piece):
        from repro.crypto.schnorr import SchnorrSignature

        forged = dataclasses.replace(
            piece, inviter_signature=SchnorrSignature(1, 2)
        )
        with pytest.raises(EvidenceError, match="inviter signature"):
            verify_evidence(authority, forged)

    def test_substituted_invitee_detected(self, authority, nodes, piece):
        forged = dataclasses.replace(piece, invitee_token=nodes["c"].token)
        with pytest.raises(EvidenceError):
            verify_evidence(authority, forged)

    def test_foreign_authority_token_detected(self, schnorr_group, nodes, piece):
        other = CredentialAuthority(schnorr_group, DeterministicRng(b"other"))
        with pytest.raises(EvidenceError, match="token"):
            verify_evidence(other, piece)


class TestEvidenceChain:
    def test_linked_chain(self, authority, nodes, rng):
        chain = EvidenceChain(authority)
        terms = ServiceTerms(("p",), ("s",))
        e1 = make_evidence(authority, nodes["a"], nodes["b"], terms, 1, rng)
        e2 = make_evidence(authority, nodes["b"], nodes["c"], terms, 2, rng)
        chain.append(e1)
        chain.append(e2)
        assert chain.current_inviter == nodes["c"].pseudonym
        chain.verify_all()

    def test_out_of_order_index_rejected(self, authority, nodes, rng):
        chain = EvidenceChain(authority)
        terms = ServiceTerms(("p",), ("s",))
        e2 = make_evidence(authority, nodes["a"], nodes["b"], terms, 2, rng)
        with pytest.raises(EvidenceError, match="out of order"):
            chain.append(e2)

    def test_stale_authority_rejected(self, authority, nodes, rng):
        """a invites b, then a (not b!) tries to invite c."""
        chain = EvidenceChain(authority)
        terms = ServiceTerms(("p",), ("s",))
        chain.append(make_evidence(authority, nodes["a"], nodes["b"], terms, 1, rng))
        rogue = make_evidence(authority, nodes["a"], nodes["c"], terms, 2, rng)
        with pytest.raises(EvidenceError, match="authority"):
            chain.append(rogue)

    def test_double_invitation_detection(self, authority, nodes, rng):
        terms = ServiceTerms(("p",), ("s",))
        e1 = make_evidence(authority, nodes["a"], nodes["b"], terms, 1, rng)
        rogue = make_evidence(authority, nodes["a"], nodes["c"], terms, 2, rng)
        cheaters = find_double_invitations([e1, rogue])
        assert cheaters == [nodes["a"].pseudonym]

    def test_no_false_positives(self, authority, nodes, rng):
        terms = ServiceTerms(("p",), ("s",))
        e1 = make_evidence(authority, nodes["a"], nodes["b"], terms, 1, rng)
        e2 = make_evidence(authority, nodes["b"], nodes["c"], terms, 2, rng)
        assert find_double_invitations([e1, e2]) == []

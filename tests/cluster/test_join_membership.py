"""Tests for the Figure 7 join handshake and membership management."""

import pytest

from repro.cluster.authority import CredentialAuthority
from repro.cluster.evidence import ServiceTerms, make_evidence
from repro.cluster.join import run_join_handshake
from repro.cluster.membership import DlaMembership
from repro.crypto import DeterministicRng
from repro.errors import EvidenceError, MembershipError
from repro.net.simnet import SimNetwork


@pytest.fixture()
def authority(schnorr_group):
    return CredentialAuthority(schnorr_group, DeterministicRng(b"join-ca"))


@pytest.fixture()
def creds(authority):
    return {n: authority.enroll(f"{n}.real") for n in ("a", "b", "c")}


class TestJoinHandshake:
    def test_three_phase_flow(self, authority, creds, rng):
        net = SimNetwork()
        piece = run_join_handshake(
            net, authority,
            "Pa", creds["a"], "Pb", creds["b"],
            proposal=["support:Time"], services=["store:Time"],
            chain_index=1, rng=rng,
        )
        assert piece.index == 1
        assert piece.inviter_token.pseudonym == creds["a"].pseudonym
        assert piece.invitee_token.pseudonym == creds["b"].pseudonym
        assert piece.terms.proposal == ("support:Time",)
        assert piece.terms.commitment == ("store:Time",)

    def test_exactly_three_messages(self, authority, creds, rng):
        net = SimNetwork()
        run_join_handshake(
            net, authority, "Pa", creds["a"], "Pb", creds["b"],
            proposal=["p"], services=["s"], chain_index=1, rng=rng,
        )
        assert net.stats.messages == 3
        assert list(net.stats.by_kind) == ["join.pp", "join.sc", "join.re"]

    def test_authority_spent_after_invite(self, authority, creds, rng):
        from repro.cluster.join import InviterNode

        net = SimNetwork()
        inviter = InviterNode("Pa", creds["a"], authority, 1, rng)
        from repro.cluster.join import InviteeNode

        invitee = InviteeNode("Pb", creds["b"], authority, ["s"], rng)
        net.register("Pa", inviter.handle)
        net.register("Pb", invitee.handle)
        inviter.invite(net, "Pb", ["p"])
        net.run()
        assert inviter.state.authority_spent
        with pytest.raises(MembershipError):
            inviter.invite(net, "Pc", ["p"])

    def test_evidence_fully_verifiable(self, authority, creds, rng):
        from repro.cluster.evidence import verify_evidence

        net = SimNetwork()
        piece = run_join_handshake(
            net, authority, "Pa", creds["a"], "Pb", creds["b"],
            proposal=["p"], services=["s"], chain_index=1, rng=rng,
        )
        verify_evidence(authority, piece)


class TestMembership:
    def test_admission_flow(self, authority, creds, rng):
        membership = DlaMembership(authority, creds["a"])
        assert membership.size == 1
        membership.admit_direct(creds["a"], creds["b"], ["p"], ["s"], rng)
        membership.admit_direct(creds["b"], creds["c"], ["p"], ["s"], rng)
        assert membership.size == 3
        membership.verify()

    def test_only_current_inviter_admits(self, authority, creds, rng):
        membership = DlaMembership(authority, creds["a"])
        membership.admit_direct(creds["a"], creds["b"], ["p"], ["s"], rng)
        # 'a' spent its authority by inviting 'b'.
        rogue = make_evidence(
            authority, creds["a"], creds["c"],
            ServiceTerms(("p",), ("s",)), index=2, rng=rng,
        )
        with pytest.raises(MembershipError):
            membership.admit(rogue)

    def test_misconduct_exposes_identity(self, authority, creds, rng):
        membership = DlaMembership(authority, creds["a"])
        piece = membership.admit_direct(creds["a"], creds["b"], ["p"], ["s"], rng)
        report = membership.arbitrate(
            creds["b"].pseudonym, [piece], "b.real", creds["b"].identity_opening
        )
        assert report.exposed_real_id == "b.real"
        assert not report.refused_to_open

    def test_refusal_is_recorded(self, authority, creds, rng):
        membership = DlaMembership(authority, creds["a"])
        piece = membership.admit_direct(creds["a"], creds["b"], ["p"], ["s"], rng)
        report = membership.arbitrate(creds["b"].pseudonym, [piece], None, None)
        assert report.refused_to_open and report.exposed_real_id is None

    def test_wrong_opening_rejected(self, authority, creds, rng):
        membership = DlaMembership(authority, creds["a"])
        piece = membership.admit_direct(creds["a"], creds["b"], ["p"], ["s"], rng)
        with pytest.raises(EvidenceError):
            membership.arbitrate(creds["b"].pseudonym, [piece], "b.real", 12345)

    def test_accusation_needs_escrow(self, authority, creds, rng):
        membership = DlaMembership(authority, creds["a"])
        with pytest.raises(EvidenceError):
            membership.arbitrate(creds["b"].pseudonym, [], "b.real", 1)

    def test_double_invitation_audit(self, authority, creds, rng):
        membership = DlaMembership(authority, creds["a"])
        membership.admit_direct(creds["a"], creds["b"], ["p"], ["s"], rng)
        off_ledger = make_evidence(
            authority, creds["a"], creds["c"],
            ServiceTerms(("x",), ("y",)), index=2, rng=rng,
        )
        assert membership.audit_for_double_invitation([off_ledger]) == [
            creds["a"].pseudonym
        ]

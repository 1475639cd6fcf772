"""Property-based tests for evidence chains and tickets."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.cluster.authority import CredentialAuthority
from repro.cluster.evidence import (
    EvidenceChain,
    ServiceTerms,
    make_evidence,
    verify_evidence,
)
from repro.crypto.rng import DeterministicRng
from repro.crypto.schnorr import SchnorrGroup
from repro.crypto.tickets import Operation, TicketAuthority
from repro.errors import EvidenceError, TicketError

# Session-level fixtures built once (hypothesis re-runs test bodies).
_GROUP = SchnorrGroup.generate(128, DeterministicRng(b"prop-cluster"))
_CA = CredentialAuthority(_GROUP, DeterministicRng(b"prop-ca"))
_CREDS = [_CA.enroll(f"prop-node-{i}") for i in range(6)]

SLOW = settings(max_examples=15, deadline=None)


def _valid(authority, ticket, required=None) -> bool:
    try:
        authority.verify(ticket, required)
    except TicketError:
        return False
    return True


class TestEvidenceChainProperties:
    @SLOW
    @given(
        length=st.integers(1, 5),
        terms=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=3),
        seed=st.integers(0, 999),
    )
    def test_any_wellformed_chain_verifies(self, length, terms, seed):
        rng = DeterministicRng(seed)
        chain = EvidenceChain(_CA)
        service_terms = ServiceTerms(tuple(terms), tuple(terms))
        for index in range(1, length + 1):
            piece = make_evidence(
                _CA, _CREDS[index - 1], _CREDS[index], service_terms, index, rng
            )
            chain.append(piece)
        chain.verify_all()
        assert len(chain.pieces) == length

    @SLOW
    @given(
        field_name=st.sampled_from(["terms", "index", "invitee_escrow"]),
        seed=st.integers(0, 999),
    )
    def test_any_field_mutation_breaks_verification(self, field_name, seed):
        rng = DeterministicRng(seed)
        piece = make_evidence(
            _CA, _CREDS[0], _CREDS[1], ServiceTerms(("p",), ("s",)), 1, rng
        )
        if field_name == "terms":
            mutated = dataclasses.replace(
                piece, terms=ServiceTerms(("p",), ("FORGED",))
            )
        elif field_name == "index":
            mutated = dataclasses.replace(piece, index=piece.index + 1)
        else:
            from repro.crypto.commitments import Commitment

            mutated = dataclasses.replace(
                piece, invitee_escrow=Commitment(piece.invitee_escrow.value + 1)
            )
        try:
            verify_evidence(_CA, mutated)
            verified = True
        except EvidenceError:
            verified = False
        assert not verified


class TestTicketProperties:
    @SLOW
    @given(
        principal=st.text(min_size=1, max_size=20),
        ops=st.sets(st.sampled_from(list(Operation)), min_size=1),
        lifetime=st.one_of(st.none(), st.integers(0, 100)),
        ticks=st.integers(0, 150),
    )
    def test_expiry_semantics(self, principal, ops, lifetime, ticks):
        authority = TicketAuthority(b"prop-ticket-master-secret-32b!!!")
        ticket = authority.issue(principal, ops, lifetime)
        authority.tick(ticks)
        should_be_valid = lifetime is None or ticks <= lifetime
        assert _valid(authority, ticket) == should_be_valid

    @SLOW
    @given(
        ops=st.sets(st.sampled_from(list(Operation)), min_size=1),
        required=st.sampled_from(list(Operation)),
    )
    def test_operation_gating(self, ops, required):
        authority = TicketAuthority(b"prop-ticket-master-secret-32b!!!")
        ticket = authority.issue("u", ops)
        assert _valid(authority, ticket, required) == (required in ops)

"""Tests for Kerberos-style tickets (paper §4)."""

import pytest

from repro.crypto.tickets import Operation, TicketAuthority
from repro.errors import TicketError


@pytest.fixture()
def authority():
    return TicketAuthority(b"master-secret-of-sixteen-bytes!!")


class TestIssuance:
    def test_issue_and_verify(self, authority):
        ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
        authority.verify(ticket)
        authority.verify(ticket, Operation.READ)
        authority.verify(ticket, Operation.WRITE)

    def test_operation_not_granted(self, authority):
        ticket = authority.issue("U1", {Operation.READ})
        with pytest.raises(TicketError):
            authority.verify(ticket, Operation.DELETE)

    def test_empty_operations_rejected(self, authority):
        with pytest.raises(TicketError):
            authority.issue("U1", set())

    def test_short_secret_rejected(self):
        with pytest.raises(TicketError):
            TicketAuthority(b"short")

    def test_unique_ids(self, authority):
        ids = {authority.issue("U", {Operation.READ}).ticket_id for _ in range(50)}
        assert len(ids) == 50

    def test_payload_and_tag_bytes_are_pinned(self, authority):
        # Tickets issued by earlier versions must keep verifying: the
        # canonical payload is compact, key-sorted JSON, escapes included.
        authority.tick(3)
        plain = authority.issue("U1", {Operation.READ, Operation.WRITE})
        escaped = authority.issue('ü "q" \\ ☃', set(Operation), lifetime=7)
        assert plain.payload_bytes() == (
            b'{"expires_at":null,"issued_at":3,"operations":["read","write"],'
            b'"principal":"U1","ticket_id":"5232aeba40b8d438"}'
        )
        assert plain.tag.hex() == (
            "3b71d4b4d00f848ba2ba07991fafc44e6d398b737e005dcd0b2edd575aadc2a8"
        )
        assert escaped.payload_bytes() == (
            b'{"expires_at":10,"issued_at":3,"operations":["delete","read","write"],'
            b'"principal":"\\u00fc \\"q\\" \\\\ \\u2603","ticket_id":"28e5b63ff3bb0fba"}'
        )
        assert escaped.tag.hex() == (
            "63e24a9c1b0f0f79d7d0870f4cb85dfcc1cb2e75f8f570e6942d5af204ddf9f3"
        )


class TestForgery:
    def test_forged_tag(self, authority):
        ticket = authority.issue("U1", {Operation.READ})
        import dataclasses

        forged = dataclasses.replace(ticket, tag=b"\x00" * 32)
        with pytest.raises(TicketError):
            authority.verify(forged)

    def test_altered_principal(self, authority):
        ticket = authority.issue("U1", {Operation.READ})
        import dataclasses

        forged = dataclasses.replace(ticket, principal="U2")
        with pytest.raises(TicketError):
            authority.verify(forged)

    def test_privilege_escalation(self, authority):
        ticket = authority.issue("U1", {Operation.READ})
        import dataclasses

        forged = dataclasses.replace(
            ticket, operations=frozenset({Operation.READ, Operation.DELETE})
        )
        with pytest.raises(TicketError):
            authority.verify(forged, Operation.DELETE)

    def test_foreign_authority(self, authority):
        other = TicketAuthority(b"a-different-master-secret-here!!")
        ticket = other.issue("U1", {Operation.READ})
        with pytest.raises(TicketError):
            authority.verify(ticket)


class TestLifecycle:
    def test_expiry(self, authority):
        ticket = authority.issue("U1", {Operation.READ}, lifetime=5)
        authority.verify(ticket)
        authority.tick(5)
        authority.verify(ticket)  # boundary inclusive
        authority.tick(1)
        with pytest.raises(TicketError):
            authority.verify(ticket)

    def test_no_expiry(self, authority):
        ticket = authority.issue("U1", {Operation.READ})
        authority.tick(10_000)
        authority.verify(ticket)

    def test_revocation(self, authority):
        ticket = authority.issue("U1", {Operation.READ})
        authority.revoke(ticket.ticket_id)
        with pytest.raises(TicketError):
            authority.verify(ticket)

    def test_clock_monotone(self, authority):
        with pytest.raises(TicketError):
            authority.tick(-1)

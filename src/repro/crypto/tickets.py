"""Kerberos-style tickets for log access control (paper §4, ref [28]).

"Before a user u_j can log (write) a message in a DLA cluster, it must
obtain a ticket to authenticate the user and control the user's access
operations (read/query, write/log, delete)."

We implement a KDC-lite: a ticket authority holds a master secret, issues
tickets binding ``(principal, operations, expiry)`` under an HMAC-SHA256
tag, and any DLA node holding the authority's verification secret can check
a ticket offline.  Tickets carry an ID so access-control tables (paper
Table 6) can key glsn grants by ticket.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import TicketError

__all__ = ["Operation", "Ticket", "TicketAuthority"]

# One encoder for every payload: ``json.dumps`` with these arguments
# would build a new one per call, and a ticket is verified on every write.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Operation(str, Enum):
    """The three access primitives the paper names."""

    READ = "read"      # read / query
    WRITE = "write"    # write / log
    DELETE = "delete"

    @classmethod
    def parse(cls, text: str) -> "Operation":
        try:
            return cls(text.lower())
        except ValueError as exc:
            raise TicketError(f"unknown operation {text!r}") from exc


@dataclass(frozen=True)
class Ticket:
    """An issued ticket: the credential a user presents with each request."""

    ticket_id: str
    principal: str
    operations: frozenset[Operation]
    issued_at: int          # logical clock of the authority
    expires_at: int | None  # None = never expires
    tag: bytes = field(repr=False)

    def payload_bytes(self) -> bytes:
        """Canonical byte serialization of everything covered by the tag.

        Rebuilt on every call: a verification checks the bytes the ticket
        carries now, never a cached rendering.
        """
        body = {
            "ticket_id": self.ticket_id,
            "principal": self.principal,
            "operations": sorted([op.value for op in self.operations]),
            "issued_at": self.issued_at,
            "expires_at": self.expires_at,
        }
        return _CANONICAL_JSON.encode(body).encode()

    def permits(self, op: Operation) -> bool:
        return op in self.operations


class TicketAuthority:
    """Issues and verifies tickets under one master secret.

    The authority keeps a logical clock; expiry is expressed in its ticks so
    tests are deterministic (no wall-clock reads).
    """

    def __init__(self, master_secret: bytes, name: str = "kdc") -> None:
        if len(master_secret) < 16:
            raise TicketError("master secret must be at least 16 bytes")
        self._secret = master_secret
        self.name = name
        self._clock = 0
        self._issued = 0
        self._revoked: set[str] = set()

    def tick(self, amount: int = 1) -> int:
        """Advance the authority's logical clock (simulating time passing)."""
        if amount < 0:
            raise TicketError("clock cannot run backwards")
        self._clock += amount
        return self._clock

    @property
    def now(self) -> int:
        return self._clock

    def _tag(self, payload: bytes) -> bytes:
        return hmac.new(self._secret, payload, hashlib.sha256).digest()

    def issue(
        self,
        principal: str,
        operations: set[Operation] | frozenset[Operation],
        lifetime: int | None = None,
    ) -> Ticket:
        """Issue a ticket for ``principal`` covering ``operations``.

        ``lifetime`` is in logical ticks; ``None`` never expires.
        """
        if not operations:
            raise TicketError("a ticket must grant at least one operation")
        self._issued += 1
        ticket_id = hashlib.sha256(
            self._secret + f"tid:{self.name}:{self._issued}".encode()
        ).hexdigest()[:16]
        expires = None if lifetime is None else self._clock + lifetime
        draft = Ticket(
            ticket_id=ticket_id,
            principal=principal,
            operations=frozenset(operations),
            issued_at=self._clock,
            expires_at=expires,
            tag=b"",
        )
        return Ticket(
            ticket_id=draft.ticket_id,
            principal=draft.principal,
            operations=draft.operations,
            issued_at=draft.issued_at,
            expires_at=draft.expires_at,
            tag=self._tag(draft.payload_bytes()),
        )

    def revoke(self, ticket_id: str) -> None:
        """Revoke a ticket by ID; future verifications fail."""
        self._revoked.add(ticket_id)

    def verify(self, ticket: Ticket, required: Operation | None = None) -> None:
        """Raise :class:`TicketError` unless ``ticket`` is authentic, unexpired,
        unrevoked, and (when ``required`` is given) grants that operation."""
        if not hmac.compare_digest(self._tag(ticket.payload_bytes()), ticket.tag):
            raise TicketError("ticket tag mismatch: forged or corrupted")
        if ticket.ticket_id in self._revoked:
            raise TicketError(f"ticket {ticket.ticket_id} has been revoked")
        if ticket.expires_at is not None and self._clock > ticket.expires_at:
            raise TicketError(f"ticket {ticket.ticket_id} expired")
        if required is not None and not ticket.permits(required):
            raise TicketError(
                f"ticket {ticket.ticket_id} does not permit {required.value}"
            )

    def is_valid(self, ticket: Ticket, required: Operation | None = None) -> bool:
        """Boolean form of :meth:`verify`."""
        try:
            self.verify(ticket, required)
        except TicketError:
            return False
        return True

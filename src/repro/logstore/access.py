"""Ticket-keyed access control tables (paper §4, Table 6).

"Each audit node maintains the same access control table for every global
log sequence number.  Each assigned glsn is authorized by some ticket.
Once some glsn is assigned ... this glsn will be added to the access table
under the entry of that ticket's ID."

The table is replicated on every DLA node; §4.1 checks replica consistency
per ticket with the secure-set-intersection primitive (implemented in
:func:`check_table_consistency`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.tickets import Operation, Ticket, TicketAuthority
from repro.errors import AccessDeniedError, UnknownGlsnError
from repro.smc.base import SmcContext
from repro.smc.intersection import secure_set_intersection

__all__ = ["AccessEntry", "AccessControlTable", "check_table_consistency"]


@dataclass
class AccessEntry:
    """One row of the paper's Table 6: a ticket and its glsn grants."""

    ticket_id: str
    operations: frozenset[Operation]
    glsns: set[int] = field(default_factory=set)

    def type_string(self) -> str:
        """The paper's W/R column rendering."""
        flags = []
        if Operation.WRITE in self.operations:
            flags.append("W")
        if Operation.READ in self.operations:
            flags.append("R")
        if Operation.DELETE in self.operations:
            flags.append("D")
        return "/".join(flags)


class AccessControlTable:
    """Per-node replica of the cluster's ticket → glsn authorization map."""

    def __init__(self, authority: TicketAuthority) -> None:
        self._authority = authority
        self._entries: dict[str, AccessEntry] = {}
        self._glsn_owner: dict[int, str] = {}

    # -- mutation -----------------------------------------------------------

    def grant(self, ticket: Ticket, glsns: list[int]) -> None:
        """Record that every glsn in ``glsns`` was assigned under ``ticket``.

        The ticket must be authentic and must carry the WRITE right (a glsn
        is granted at log-write time).  It is verified once for the whole
        list, so a revocation or expiry takes effect at the next call.
        """
        self._authority.verify(ticket, Operation.WRITE)
        ticket_id = ticket.ticket_id
        entry = self._entries.get(ticket_id)
        if entry is None:
            entry = self._entries[ticket_id] = AccessEntry(
                ticket_id=ticket_id, operations=ticket.operations
            )
        entry.glsns.update(glsns)
        self._glsn_owner.update(dict.fromkeys(glsns, ticket_id))

    def revoke_glsn(self, ticket: Ticket, glsn: int) -> None:
        """Remove a grant (delete path).  Requires the DELETE right."""
        self._authority.verify(ticket, Operation.DELETE)
        entry = self._entries.get(ticket.ticket_id)
        if entry is None or glsn not in entry.glsns:
            raise UnknownGlsnError(
                f"glsn {glsn:#x} is not granted under ticket {ticket.ticket_id}"
            )
        entry.glsns.discard(glsn)
        self._glsn_owner.pop(glsn, None)

    # -- checks --------------------------------------------------------------

    def authorize(self, ticket: Ticket, glsn: int, op: Operation) -> None:
        """Raise unless ``ticket`` authentically grants ``op`` on ``glsn``."""
        self._authority.verify(ticket, op)
        owner = self._glsn_owner.get(glsn)
        if owner is None:
            raise UnknownGlsnError(f"glsn {glsn:#x} was never assigned")
        if owner != ticket.ticket_id:
            raise AccessDeniedError(
                f"glsn {glsn:#x} belongs to ticket {owner}, not "
                f"{ticket.ticket_id}"
            )

    def glsns_for(self, ticket_id: str) -> set[int]:
        entry = self._entries.get(ticket_id)
        return set(entry.glsns) if entry else set()

    @property
    def ticket_ids(self) -> list[str]:
        return sorted(self._entries)

    def render(self) -> str:
        """ASCII rendering in the paper's Table 6 shape."""
        lines = ["Ticket ID         Type  glsn", "-" * 60]
        for ticket_id in self.ticket_ids:
            entry = self._entries[ticket_id]
            glsns = ", ".join(format(g, "x") for g in sorted(entry.glsns))
            lines.append(f"{ticket_id:<17} {entry.type_string():<5} {glsns}")
        return "\n".join(lines)


def check_table_consistency(
    ctx: SmcContext,
    replicas: dict[str, AccessControlTable],
    ticket_id: str,
) -> bool:
    """§4.1's replica-consistency check via secure set intersection.

    Each DLA node's grant set for ``ticket_id`` enters a secure set
    intersection keyed by glsn; the replicas agree iff the intersection
    cardinality equals every replica's set size.  No node reveals grants
    the others lack (only the shared subset surfaces).
    """
    sets = {
        node_id: sorted(table.glsns_for(ticket_id))
        for node_id, table in replicas.items()
    }
    sizes = {len(v) for v in sets.values()}
    if sizes == {0}:
        return True
    result = secure_set_intersection(ctx, sets)
    common = len(result.any_value)
    return all(len(v) == common for v in sets.values())

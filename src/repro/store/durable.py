"""A :class:`~repro.logstore.store.FragmentStore` backed by a WAL.

:class:`DurableFragmentStore` keeps the exact in-memory structures (and
therefore the exact read path, epochs, and cache keys) of the base
class; every *mutation* additionally appends one record to the node's
:class:`~repro.store.wal.WriteAheadLog` after the in-memory state change
validates; a ``put`` of a batch's fragments is one WAL write, one record
per fragment, each framed when the batch is staged.  A record is durable
once its WAL entry is flushed — the fsync policy decides when the OS page
cache is forced out.

Recovery applies the same records back through
:meth:`DurableFragmentStore.apply_wal_record` — and installs each node's
checkpoint record through it too — which bypasses ticket verification
(it re-installs previously authorized state verbatim) and is
idempotent, so a checkpoint that raced a crash can safely overlap the
WAL it did not get to truncate.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable

from repro.crypto.tickets import Operation, Ticket, TicketAuthority
from repro.errors import LogStoreError
from repro.logstore.access import AccessEntry
from repro.logstore.fragmentation import Fragment
from repro.logstore.store import FragmentStore
from repro.store.wal import WriteAheadLog

__all__ = ["DurableFragmentStore"]


class DurableFragmentStore(FragmentStore):
    """One DLA node's storage with an append-only durability log."""

    def __init__(
        self,
        node_id: str,
        authority: TicketAuthority,
        wal: WriteAheadLog,
    ) -> None:
        super().__init__(node_id, authority)
        self.wal = wal
        #: True while recovery replays — replayed mutations must not be
        #: re-logged or they would double on the next crash.
        self._replaying = False

    # -- logged mutations ----------------------------------------------------

    def stage_put(
        self, fragments: list[Fragment], ticket: Ticket, anchors: list[int]
    ) -> Callable[[], None]:
        """Also frame one ``put`` record per fragment now — a value the
        codec refuses raises here, before any node stores anything — and
        write the frames, in one WAL append, when the batch is stored."""
        store = super().stage_put(fragments, ticket, anchors)
        if self._replaying:
            return store
        ticket_id = ticket.ticket_id
        rights = sorted(op.value for op in ticket.operations)
        frames = [
            self.wal.encode_record({
                "op": "put",
                "glsn": fragment.glsn,
                "values": fragment.values,
                "anchor": anchor,
                "ticket_id": ticket_id,
                "rights": rights,
            })
            for fragment, anchor in zip(fragments, anchors)
        ]

        def store_and_log() -> None:
            store()
            self.wal.append(frames)

        return store_and_log

    def delete(self, glsn: int, ticket: Ticket) -> None:
        super().delete(glsn, ticket)
        if not self._replaying:
            self.wal.append(
                [{"op": "delete", "glsn": glsn, "ticket_id": ticket.ticket_id}]
            )

    def evict(self, glsn: int) -> Fragment:
        fragment = super().evict(glsn)
        if not self._replaying:
            self.wal.append([{"op": "evict", "glsn": glsn}])
        return fragment

    def tamper(self, glsn: int, attribute: str, new_value) -> None:
        # A compromised node's *disk* is rewritten too (§4.1) — logging the
        # tamper keeps a recovered store byte-identical to the pre-crash
        # one, so the integrity ring still catches the rewrite afterwards.
        super().tamper(glsn, attribute, new_value)
        if not self._replaying:
            self.wal.append(
                [{"op": "tamper", "glsn": glsn, "attribute": attribute,
                  "value": new_value}]
            )

    # -- replay --------------------------------------------------------------

    def apply_wal_record(self, record: dict) -> None:
        """Re-apply one logged mutation without ticket checks (idempotent).

        A ``"node"`` record is a checkpoint's image of this node: every
        fragment with its anchor, then the ACL replica (grants of evicted
        glsns and entries emptied by deletes included).  A ``"chain"``
        field on a ``put`` record (written by stores that kept a
        combined-ring anchor per append) is ignored.
        """
        op = record.get("op")
        glsn = record.get("glsn")
        if op == "node":
            glsns = record["glsns"]
            self._accumulators.update(zip(glsns, record["anchors"]))
            self._install(
                glsns, list(map(Fragment, glsns, repeat(self.node_id), record["values"]))
            )
            for ticket_id, rights, glsns in record["acl"]:
                entry = self.acl._entries.setdefault(
                    ticket_id,
                    AccessEntry(
                        ticket_id=ticket_id,
                        operations=frozenset(map(Operation, rights)),
                    ),
                )
                entry.glsns.update(glsns)
                self.acl._glsn_owner.update(dict.fromkeys(glsns, ticket_id))
        elif op == "put":
            fragment = Fragment(
                glsn=glsn, node_id=self.node_id, values=dict(record["values"])
            )
            self._accumulators[glsn] = record["anchor"]
            entry = self.acl._entries.setdefault(
                record["ticket_id"],
                AccessEntry(
                    ticket_id=record["ticket_id"],
                    operations=frozenset(
                        Operation(op_value) for op_value in record["rights"]
                    ),
                ),
            )
            entry.glsns.add(glsn)
            self.acl._glsn_owner[glsn] = record["ticket_id"]
            self._install([glsn], [fragment])
        elif op == "delete":
            if glsn not in self._fragments:
                return  # idempotent overlap with the checkpoint
            self._forget(glsn)
            entry = self.acl._entries.get(record.get("ticket_id"))
            if entry is not None:
                entry.glsns.discard(glsn)
            self.acl._glsn_owner.pop(glsn, None)
        elif op == "evict":
            if glsn in self._fragments:
                self._forget(glsn)
        elif op == "tamper":
            if glsn in self._fragments:
                self.tamper(glsn, record["attribute"], record["value"])
        else:
            raise LogStoreError(f"unknown WAL record op {op!r}")

    def rollback_glsn(self, glsn: int) -> None:
        """Drop a half-written append during recovery (never logged)."""
        if glsn not in self._fragments:
            return
        self._forget(glsn)
        entry = self.acl._entries.get(self.acl._glsn_owner.pop(glsn, None))
        if entry is not None:
            entry.glsns.discard(glsn)

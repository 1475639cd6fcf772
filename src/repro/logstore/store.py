"""Per-node fragment storage and the distributed logging write path.

Each DLA node owns a :class:`FragmentStore`: its slice of every record
(keyed by glsn), its access-control-table replica, and its integrity
digests.  :class:`DistributedLogStore` wires ``n`` stores behind one write
interface implementing the paper's logging flow (Figure 2): a user node
fragments the record, obtains a glsn, and ships fragment ``Log_i`` to node
``P_i`` together with the one-way accumulator of the full fragment set.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.crypto.accumulator import AccumulatorParams, OneWayAccumulator
from repro.crypto.tickets import Operation, Ticket, TicketAuthority
from repro.errors import AccessDeniedError, LogStoreError, UnknownGlsnError
from repro.logstore.access import AccessControlTable
from repro.logstore.fragmentation import Fragment, FragmentPlan
from repro.logstore.glsn import GlsnAllocator
from repro.logstore.records import LogRecord

__all__ = ["FragmentStore", "DistributedLogStore", "WriteReceipt"]


class FragmentStore:
    """One DLA node's local storage: fragments, ACL replica, digests."""

    def __init__(self, node_id: str, authority: TicketAuthority) -> None:
        self.node_id = node_id
        self.acl = AccessControlTable(authority)
        self._fragments: dict[int, Fragment] = {}
        self._accumulators: dict[int, int] = {}  # glsn -> expected A(x0, frags)
        # Cache coherence: a monotonic store-wide epoch plus per-glsn
        # versions, bumped on every mutation (put/delete/tamper).  Caches
        # key on these, so stale entries are simply never looked up again.
        self._epoch = 0
        self._versions: dict[int, int] = {}
        # This node's last integrity fold per glsn: (incoming value, digest
        # exponent, folded value).  ``pow`` is pure, so a sweep that meets
        # the same two inputs reuses the output; an entry leaves with its
        # glsn (:meth:`_forget`), so there is at most one per fragment.
        self._folds: dict[int, tuple[int, int, int]] = {}
        # Orders a fold's write-back against _forget: a sweep racing a
        # delete must not re-add the forgotten glsn's entry.
        self._folds_lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter — cache keys include it."""
        return self._epoch

    def fragment_version(self, glsn: int) -> int | None:
        """Version of one fragment (bumped by put/tamper), None if absent."""
        return self._versions.get(glsn)

    def _bump(self, glsn: int, present: bool) -> None:
        self._epoch += 1
        if present:
            self._versions[glsn] = self._epoch
        else:
            self._versions.pop(glsn, None)

    # -- writes ---------------------------------------------------------------

    def put(
        self, fragment: Fragment, ticket: Ticket, expected_accumulator: int
    ) -> None:
        """Store a fragment under an authenticated WRITE ticket."""
        if fragment.node_id != self.node_id:
            raise LogStoreError(
                f"fragment addressed to {fragment.node_id}, this is {self.node_id}"
            )
        self.acl.grant(ticket, fragment.glsn)
        self._fragments[fragment.glsn] = fragment
        self._accumulators[fragment.glsn] = expected_accumulator
        self._bump(fragment.glsn, present=True)

    def delete(self, glsn: int, ticket: Ticket) -> None:
        """Delete a fragment under an authenticated DELETE ticket."""
        if glsn not in self._fragments:
            raise UnknownGlsnError(f"{self.node_id} holds no fragment for {glsn:#x}")
        self.acl.revoke_glsn(ticket, glsn)
        self._forget(glsn)

    def _forget(self, glsn: int) -> None:
        """Drop what this node keeps for a held ``glsn``: its fragment,
        anchor and fold memo entry (ACL bookkeeping is the caller's)."""
        with self._folds_lock:
            del self._fragments[glsn]
            self._folds.pop(glsn, None)
        self._accumulators.pop(glsn, None)
        self._bump(glsn, present=False)

    # -- reads ----------------------------------------------------------------

    def get(self, glsn: int, ticket: Ticket) -> Fragment:
        """Ticket-checked read of one fragment."""
        self.acl.authorize(ticket, glsn, Operation.READ)
        return self._read(glsn)

    def _read(self, glsn: int) -> Fragment:
        try:
            return self._fragments[glsn]
        except KeyError as exc:
            raise UnknownGlsnError(
                f"{self.node_id} holds no fragment for glsn {glsn:#x}"
            ) from exc

    def local_fragment(self, glsn: int) -> Fragment:
        """Internal (node-side) read used by query processing and integrity
        checks — node code accessing its *own* storage needs no ticket."""
        return self._read(glsn)

    def expected_accumulator(self, glsn: int) -> int:
        try:
            return self._accumulators[glsn]
        except KeyError as exc:
            raise UnknownGlsnError(
                f"{self.node_id} has no accumulator for glsn {glsn:#x}"
            ) from exc

    def fold(
        self,
        glsns: list[int],
        incoming: list[int],
        compute: Callable[[list[int], list[int]], list[int]],
    ) -> tuple[list[int], int]:
        """This node's §4.1 fold of ``incoming[i]`` by glsn ``i``'s fragment.

        ``compute(values, exponents)`` performs the folds; it is handed
        only the glsns whose (incoming value, digest exponent) differ from
        the last fold here — the rest reuse that fold's output.  A tamper
        installs a new fragment, so its exponent, and hence every later
        hop's incoming value, misses.  Returns the folded values in order
        and how many were computed.
        """
        folds = self._folds
        out: list[int] = []
        misses: list[tuple[int, int, int, int]] = []
        for at, (glsn, value) in enumerate(zip(glsns, incoming)):
            exponent = self._read(glsn).digest_exponent()
            last = folds.get(glsn)
            if last is not None and last[0] == value and last[1] == exponent:
                out.append(last[2])
            else:
                out.append(0)
                misses.append((at, glsn, value, exponent))
        if misses:
            results = compute([m[2] for m in misses], [m[3] for m in misses])
            with self._folds_lock:
                for (at, glsn, value, exponent), result in zip(misses, results):
                    out[at] = result
                    if glsn in self._fragments:  # not forgotten mid-sweep
                        folds[glsn] = (value, exponent, result)
        return out, len(misses)

    @property
    def glsns(self) -> list[int]:
        return sorted(self._fragments)

    def __len__(self) -> int:
        return len(self._fragments)

    def scan(
        self, predicate: Callable[[Fragment], bool] | None = None
    ) -> Iterable[Fragment]:
        """Iterate local fragments (optionally filtered) in glsn order."""
        for glsn in self.glsns:
            frag = self._fragments[glsn]
            if predicate is None or predicate(frag):
                yield frag

    # -- fault injection (tests/benches) ---------------------------------------

    def evict(self, glsn: int) -> Fragment:
        """Drop a held fragment without a ticket: a node that lost it.

        Emulates a node whose storage lost one fragment (the executor's
        ``index_divergence`` fallback is tested this way).  Unlike
        :meth:`delete` this is not the user delete path, so no DELETE
        right is involved; ACL grants referencing the glsn become inert
        (reads raise :class:`UnknownGlsnError` on this node).  Returns
        the evicted fragment.
        """
        frag = self._read(glsn)
        self._forget(glsn)
        return frag

    def tamper(self, glsn: int, attribute: str, new_value) -> None:
        """Maliciously alter a stored fragment, bypassing every check.

        Exists so integrity tests can emulate a compromised node (§4.1:
        "When a DLA node is compromised, its access control tables and log
        records could be modified").
        """
        frag = self._read(glsn)
        values = dict(frag.values)
        values[attribute] = new_value
        self._fragments[glsn] = Fragment(
            glsn=frag.glsn, node_id=frag.node_id, values=values
        )
        # Even a malicious rewrite moves the epoch: the compromised node's
        # own caches see its mutation (anchors, of course, do not).  The
        # fold memo needs no entry dropped: the new fragment's exponent
        # differs, so the next fold misses.
        self._bump(glsn, present=True)


@dataclass(frozen=True)
class WriteReceipt:
    """What the user node keeps after a distributed write."""

    glsn: int
    accumulator: int
    nodes: tuple[str, ...]


class DistributedLogStore:
    """The cluster-side write path of Figure 2, in-process form.

    The networked form lives in :mod:`repro.core.service`; this class is
    the storage engine both share and is directly useful for tests,
    examples and single-process embeddings.
    """

    def __init__(
        self,
        plan: FragmentPlan,
        authority: TicketAuthority,
        acc_params: AccumulatorParams,
        allocator: GlsnAllocator | None = None,
        tracer=None,
        store_factory: Callable[[str], FragmentStore] | None = None,
    ) -> None:
        self.plan = plan
        self.authority = authority
        self.accumulator = OneWayAccumulator(acc_params, tracer=tracer)
        self.allocator = allocator or GlsnAllocator()
        # ``store_factory`` lets a durable backend supply WAL-attached
        # node stores while this class keeps owning the write protocol.
        factory = store_factory or (
            lambda node_id: FragmentStore(node_id, authority)
        )
        self.stores: dict[str, FragmentStore] = {
            node_id: factory(node_id) for node_id in plan.node_ids
        }

    def append(self, values: dict, ticket: Ticket) -> WriteReceipt:
        """Log one event: allocate a glsn, fragment, store everywhere.

        Computes the order-independent accumulator over all fragments (one
        fixed-base power) and hands it to every node — the anchor for §4.1
        integrity checks.
        """
        self.authority.verify(ticket, Operation.WRITE)
        glsn = self.allocator.allocate()
        record = LogRecord(glsn=glsn, values=values)
        fragments = self.plan.fragment(record)
        exponents = [frag.digest_exponent() for frag in fragments.values()]
        digest = self.accumulator.accumulate_all(exponents)
        for node_id, fragment in fragments.items():
            self.stores[node_id].put(fragment, ticket, digest)
        return WriteReceipt(
            glsn=glsn, accumulator=digest, nodes=tuple(sorted(fragments))
        )

    def append_record(self, record_values_list: list[dict], ticket: Ticket) -> list[WriteReceipt]:
        """Batch append preserving order."""
        return [self.append(values, ticket) for values in record_values_list]

    def read_record(self, glsn: int, ticket: Ticket) -> LogRecord:
        """Reassemble a full record — requires READ right on the glsn.

        Note this is the *owner* path (a user reading its own logs); the
        auditor path never reassembles records, it runs confidential
        queries instead.
        """
        fragments = [
            store.get(glsn, ticket) for store in self.stores.values()
        ]
        return self.plan.reassemble(fragments)

    def delete_record(self, glsn: int, ticket: Ticket) -> None:
        """Delete every fragment of ``glsn`` — requires the DELETE right."""
        self.authority.verify(ticket, Operation.DELETE)
        for store in self.stores.values():
            try:
                store.delete(glsn, ticket)
            except UnknownGlsnError:
                # A node that never held values still participates; treat a
                # missing fragment on one node as already-deleted there.
                continue

    def node_store(self, node_id: str) -> FragmentStore:
        try:
            return self.stores[node_id]
        except KeyError as exc:
            raise AccessDeniedError(f"unknown DLA node {node_id!r}") from exc

    @property
    def glsns(self) -> list[int]:
        """All glsns present on (any of) the cluster nodes."""
        everything: set[int] = set()
        for store in self.stores.values():
            everything.update(store.glsns)
        return sorted(everything)

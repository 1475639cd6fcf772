"""Per-node fragment storage and the distributed logging write path.

Each DLA node owns a :class:`FragmentStore`: its slice of every record
(keyed by glsn), its access-control-table replica, and its integrity
digests.  :class:`DistributedLogStore` wires ``n`` stores behind one write
interface implementing the paper's logging flow (Figure 2): a user node
fragments the record, obtains a glsn, and ships fragment ``Log_i`` to node
``P_i`` together with the one-way accumulator of the full fragment set.
Writes go in batches (a single append is a one-row batch): each node
receives its fragments of a batch, and checks the ticket, in one call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import compress, repeat, takewhile
from operator import attrgetter, is_not, itemgetter, lt, ne, or_
from typing import Callable, Iterable

from repro.crypto.accumulator import AccumulatorParams, OneWayAccumulator
from repro.crypto.tickets import Operation, Ticket, TicketAuthority
from repro.errors import AccessDeniedError, LogStoreError, UnknownGlsnError
from repro.logstore.access import AccessControlTable
from repro.logstore.fragmentation import Fragment, FragmentPlan
from repro.logstore.glsn import GlsnAllocator
from repro.logstore.records import LogRecord

__all__ = ["FragmentStore", "DistributedLogStore", "WriteReceipt"]

# The memo slot of a glsn never folded (or judged) here: a token value is
# never None, so it always misses.
_NO_MEMO = (None, None, None)
_first, _second, _third = map(itemgetter, range(3))
_glsn = attrgetter("glsn")


class FragmentStore:
    """One DLA node's local storage: fragments, ACL replica, digests."""

    def __init__(self, node_id: str, authority: TicketAuthority) -> None:
        self.node_id = node_id
        self.acl = AccessControlTable(authority)
        # Iterates in glsn order: appends arrive in glsn order, and any
        # other put re-sorts it (:meth:`_install`), so reads never sort.
        self._fragments: dict[int, Fragment] = {}
        self._accumulators: dict[int, int] = {}  # glsn -> expected A(x0, frags)
        # Cache coherence: a monotonic store-wide epoch bumped on every
        # mutation (put/delete/tamper); caches key on it, so stale entries
        # are simply never looked up again.
        self._epoch = 0
        # One past the highest glsn ever stored here, and the count of
        # mutations that were not appends above it (:attr:`rewrites`).
        self._watermark = 0
        self._rewrites = 0
        # This node's last integrity fold per glsn: (the stored Fragment it
        # folded, incoming value, folded value).  ``pow`` is pure and a
        # stored fragment is never edited in place, so a sweep that meets
        # the same fragment *object* and incoming value reuses the output.
        self._folds: dict[int, tuple[Fragment, int, int]] = {}
        # The last verdict this node built per glsn as a ring's initiator:
        # (observed, expected, verdict), reused while both are unchanged.
        self._verdicts: dict[int, tuple[int, int, object]] = {}
        # Orders a memo write-back against _forget: a sweep racing a
        # delete must not re-add the forgotten glsn's entry.
        self._memo_lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter — cache keys include it."""
        return self._epoch

    @property
    def watermark(self) -> int:
        """One past the highest glsn this node has ever stored."""
        return self._watermark

    @property
    def rewrites(self) -> int:
        """Mutations that were not appends above :attr:`watermark`:
        deletes, evictions, tampers, rollbacks, overwrites and puts below
        it.  While it is unchanged, every fragment under a past watermark
        is the one that was there when it was read."""
        return self._rewrites

    def _bump(self) -> None:
        self._epoch += 1

    def _rewrite(self) -> None:
        self._rewrites += 1
        self._epoch += 1

    def _install(self, glsns: list[int], fragments: list[Fragment]) -> None:
        """Store ``fragments`` under ``glsns``, keeping :attr:`_fragments`
        in glsn order; anything but an append above the watermark, in
        order, counts as a rewrite."""
        held = self._fragments
        if not glsns:
            self._bump()
            return
        if glsns[0] >= self._watermark and all(map(lt, glsns, glsns[1:])):
            held.update(zip(glsns, fragments))
            self._watermark = glsns[-1] + 1
            self._bump()
            return
        top = next(reversed(held), -1)
        fresh = [glsn for glsn in glsns if glsn not in held]
        held.update(zip(glsns, fragments))
        if fresh and (fresh[0] < top or not all(map(lt, fresh, fresh[1:]))):
            self._fragments = dict(sorted(held.items()))
        self._watermark = max(self._watermark, max(glsns) + 1)
        self._rewrite()

    # -- writes ---------------------------------------------------------------

    def stage_put(
        self, fragments: list[Fragment], ticket: Ticket, anchors: list[int]
    ) -> Callable[[], None]:
        """Check this node's fragments of one batch and return the call
        that stores them under an authenticated WRITE ticket, ``anchors[i]``
        being the expected accumulator of ``fragments[i]``.

        Every fragment is checked to be addressed here, and nothing is
        stored until the returned call runs, so a writer stages every
        node's share before any node stores one.  That call verifies the
        ticket once for the batch (tag, revocation, expiry, right).
        """
        for fragment in fragments:
            if fragment.node_id != self.node_id:
                raise LogStoreError(
                    f"fragment addressed to {fragment.node_id}, this is {self.node_id}"
                )
        glsns = list(map(_glsn, fragments))

        def commit() -> None:
            self.acl.grant(ticket, glsns)
            self._accumulators.update(zip(glsns, anchors))
            self._install(glsns, fragments)

        return commit

    def delete(self, glsn: int, ticket: Ticket) -> None:
        """Delete a fragment under an authenticated DELETE ticket."""
        if glsn not in self._fragments:
            raise UnknownGlsnError(f"{self.node_id} holds no fragment for {glsn:#x}")
        self.acl.revoke_glsn(ticket, glsn)
        self._forget(glsn)

    def _forget(self, glsn: int) -> None:
        """Drop what this node keeps for a held ``glsn``: its fragment,
        anchor and integrity memo entries (ACL bookkeeping is the caller's)."""
        with self._memo_lock:
            del self._fragments[glsn]
            self._folds.pop(glsn, None)
            self._verdicts.pop(glsn, None)
        self._accumulators.pop(glsn, None)
        self._rewrite()

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

    def held_values(self, glsns) -> list[dict]:
        """Node-side: the values held for each of ``glsns``, ``{}`` for a
        glsn this node lost (:meth:`evict`) or no longer holds."""
        held = self._fragments
        return [held[glsn].values if glsn in held else {} for glsn in glsns]

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
    ) -> tuple[list[int], int, int]:
        """This node's §4.1 fold of ``incoming[i]`` by glsn ``i``'s fragment.

        ``compute(values, exponents)`` performs the folds; it is handed
        only the glsns whose stored ``Fragment`` object or incoming value
        differ from the last fold here — the rest reuse that fold's output,
        found by passes over the aligned lists that never enter Python
        code per glsn.  A tamper, put, replay or rollback installs a new
        fragment object, so its glsn misses here and, its output having
        changed, at every later hop.  A glsn this node no longer holds
        folds to 0, which no later fold turns into an anchor.  Returns the
        folded values in order, how many were computed and how many reused.
        """
        held = self._fragments
        lasts = list(map(self._folds.get, glsns, repeat(_NO_MEMO)))
        misses = list(compress(range(len(glsns)), map(
            or_,
            map(is_not, map(held.get, glsns), map(_first, lasts)),
            map(ne, incoming, map(_second, lasts)),
        )))
        out = list(map(_third, lasts))
        reused = len(glsns) - len(misses)
        if not misses:
            return out, 0, reused
        todo = []
        for at in misses:
            fragment = held.get(glsns[at])
            out[at] = 0
            if fragment is not None:
                todo.append((at, fragment))
        results = compute(
            [incoming[at] for at, _ in todo],
            [fragment.digest_exponent() for _, fragment in todo],
        )
        with self._memo_lock:
            for (at, fragment), result in zip(todo, results):
                out[at] = result
                glsn = glsns[at]
                if held.get(glsn) is fragment:  # not replaced or forgotten mid-sweep
                    self._folds[glsn] = (fragment, incoming[at], result)
        return out, len(todo), reused

    def verdicts(
        self,
        glsns: list[int],
        observed: list[int],
        build: Callable[[int, int, int], object],
    ) -> list:
        """The verdict per glsn on a token that came home to this node.

        ``build(glsn, observed, expected)`` makes one from the folded value
        and this node's anchor (0 for a glsn it no longer holds); it is
        called only where that pair differs from the last verdict kept
        here, and every other glsn gets that same verdict object back.
        """
        expected = list(map(self._accumulators.get, glsns, repeat(0)))
        lasts = list(map(self._verdicts.get, glsns, repeat(_NO_MEMO)))
        changed = list(compress(range(len(glsns)), map(
            or_,
            map(ne, observed, map(_first, lasts)),
            map(ne, expected, map(_second, lasts)),
        )))
        out = list(map(_third, lasts))
        if not changed:
            return out
        with self._memo_lock:
            held = self._fragments
            for at in changed:
                glsn = glsns[at]
                out[at] = verdict = build(glsn, observed[at], expected[at])
                if glsn in held:
                    self._verdicts[glsn] = (observed[at], expected[at], verdict)
        return out

    @property
    def glsns(self) -> list[int]:
        return list(self._fragments)

    def __len__(self) -> int:
        return len(self._fragments)

    def scan(
        self, predicate: Callable[[Fragment], bool] | None = None
    ) -> Iterable[Fragment]:
        """Iterate local fragments (optionally filtered) in glsn order."""
        for frag in list(self._fragments.values()):
            if predicate is None or predicate(frag):
                yield frag

    def glsns_from(self, floor: int) -> list[int]:
        """The held glsns at or above ``floor``, in order, read from the
        top: O(glsns at or above ``floor``), however long the log."""
        tail = list(takewhile(floor.__le__, reversed(self._fragments)))
        tail.reverse()
        return tail

    def fragments_from(self, floor: int) -> list[Fragment]:
        """The held fragments of :meth:`glsns_from` ``(floor)``, in order."""
        held = self._fragments
        return [held[glsn] for glsn in self.glsns_from(floor)]

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
        # Even a malicious rewrite moves the epoch and the rewrite count:
        # the compromised node's own caches see its mutation (anchors, of
        # course, do not).  The fold memo needs no entry dropped: it is
        # keyed on the replaced Fragment object, so the next fold misses.
        self._rewrite()


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
        """Log one event: a one-row :meth:`append_batch`."""
        return self.append_batch([values], ticket)[0]

    def append_batch(self, rows: list[dict], ticket: Ticket) -> list[WriteReceipt]:
        """Log ``rows`` in order: per row allocate a glsn, fragment, anchor;
        then each node stores its fragments of the batch in one call.

        Each row's anchor is the order-independent accumulator over all of
        its fragments (one fixed-base power), handed to every node — the
        anchor of §4.1 integrity checks.  The ticket is verified here and
        once by each node.  Every row is fragmented before any node stores
        anything, and every node stages its share (on a durable store,
        builds its WAL frames) before any node stores one, so a row that
        fails (an unknown attribute, or a value the WAL codec refuses)
        leaves the store as it was; the glsns allocated to the batch are
        left unused, and the next batch gets fresh ones.
        """
        self.authority.verify(ticket, Operation.WRITE)
        allocate, fragment = self.allocator.allocate, self.plan.fragment
        accumulate = self.accumulator.accumulate_all
        fragment_sets, digests, receipts = [], [], []
        for values in rows:
            glsn = allocate()
            fragments = fragment(LogRecord(glsn=glsn, values=values))
            digest = accumulate([frag.digest_exponent() for frag in fragments.values()])
            fragment_sets.append(fragments)
            digests.append(digest)
            receipts.append(
                WriteReceipt(glsn=glsn, accumulator=digest, nodes=tuple(sorted(fragments)))
            )
        if receipts:
            # The plan gives every node a fragment of every record.
            commits = [
                store.stage_put(
                    [fragments[node_id] for fragments in fragment_sets], ticket, digests
                )
                for node_id, store in self.stores.items()
            ]
            for commit in commits:
                commit()
        return receipts

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
            everything.update(store._fragments)
        return sorted(everything)

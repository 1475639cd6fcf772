"""Distributed integrity cross-checking (paper §4.1, eq. 8-9).

When a user writes a record, it accumulates every fragment into
``A(x_0, Log_0, ..., Log_{n-1})`` and hands the value to all DLA nodes.
To audit integrity later, a node circulates an accumulation token around
the cluster keyed by glsn; each node folds in *its own stored fragment*.
Quasi-commutativity (eq. 9) makes the result order-independent, so the
final token must equal the stored anchor — any single tampered fragment
changes it.  The checking nodes never see each other's fragments: only
accumulator values travel.

Both an in-process checker (:class:`IntegrityChecker`) and a message-driven
ring protocol (:func:`run_integrity_round`) are provided; the ring form is
what the networked service uses and what the integrity benchmarks measure.
:func:`run_batched_integrity_round` sends one *multi-glsn token* round the
ring instead of one token per glsn: identical per-glsn reports at
O(nodes) messages instead of O(nodes × glsns).

A sweep pays for what changed: each node remembers its last fold per glsn
(:meth:`~repro.logstore.store.FragmentStore.fold`), keyed on the stored
fragment object and the incoming token value, and recomputes only the
glsns where either differs.  A tamper installs a new fragment at one node
and therefore changes the incoming value at every later hop, so detection
is exactly that of a memo-free sweep.  The initiator likewise keeps its
last report per glsn (:meth:`~repro.logstore.store.FragmentStore.verdicts`)
and builds a new one only where the observed value or its anchor changed.
A glsn some node lost folds to 0 there and is reported ``ok=False``.

The in-process checker is what a recovery audit runs: it confirms every
glsn at once with one small-exponent batch test and bisects a failing
batch down to exact per-glsn checks.
"""

from __future__ import annotations

import secrets
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import mul

from repro.crypto.accumulator import OneWayAccumulator
from repro.errors import (
    IntegrityError,
    ProtocolAbortError,
    RingFailoverError,
    UnknownGlsnError,
)
from repro.logstore.fragmentation import Fragment
from repro.logstore.store import DistributedLogStore, FragmentStore
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline, ring_avoiding, supervise_ring_async
from repro.twin import sync_twin

__all__ = [
    "EXACT_LEAF",
    "IntegrityChecker",
    "IntegrityReport",
    "BatchIntegrityReport",
    "IntegrityNode",
    "run_integrity_round",
    "run_integrity_round_async",
    "run_batched_integrity_round",
    "run_batched_integrity_round_async",
]


@dataclass(frozen=True)
class IntegrityReport:
    """Outcome of checking one glsn (or a batch).

    ``verified`` is ``False`` when ring failover had to exclude nodes
    (named in ``skipped_nodes``): the fold is then incomplete, so the
    check can neither confirm integrity nor prove tampering — ``ok`` is
    forced ``False`` and the report is explicitly *unverified*, never a
    false "intact" or a false tamper accusation.
    """

    glsn: int
    ok: bool
    expected: int
    observed: int
    messages: int = 0
    verified: bool = True
    skipped_nodes: tuple[str, ...] = ()


@dataclass(frozen=True)
class BatchIntegrityReport:
    """The per-glsn reports of one batched round as a single verdict."""

    glsns: tuple[int, ...]
    ok: bool
    mode: str  # always "per-glsn"
    reports: tuple[IntegrityReport, ...] = ()
    verified: bool = True  # False when failover skipped nodes (see IntegrityReport)
    skipped_nodes: tuple[str, ...] = ()


#: Largest failing subset :meth:`IntegrityChecker.check_all` checks glsn by
#: glsn instead of bisecting further.
EXACT_LEAF = 16


def _agreed_anchor(anchors: list[int]) -> int:
    """The anchor a strict majority of ``anchors`` hold; 0 when none does.

    Nodes that disagree about an anchor mean a compromised node rewrote its
    copy, so a glsn is checked against the majority value.  With no strict
    majority (a 2–2 split of four nodes, say) the glsn has no agreed
    anchor and fails: the rule ``run_majority_agreement`` applies to
    released results.
    """
    first = anchors[0]
    if 2 * anchors.count(first) > len(anchors):
        return first
    value, count = Counter(anchors).most_common(1)[0]
    return value if 2 * count > len(anchors) else 0


class IntegrityChecker:
    """In-process integrity verification over a :class:`DistributedLogStore`.

    Every glsn's expected value is the anchor a strict majority of its
    nodes hold (:func:`_agreed_anchor`); its observed value is ``x0`` raised
    to the product of every node's fragment digest exponent.
    :meth:`check_glsn` computes that power exactly.  :meth:`check_all`
    confirms every glsn at once with the small-exponent batch test
    (Bellare–Garay–Rabin): for fresh random odd 64-bit ``r_g``,

        Π anchor_g^(r_g) == x0^(Σ r_g·P_g)  (mod n),

    which holds for every choice of ``r`` when all anchors match and for at
    most a 2^-63 share of them otherwise (``docs/threat-model.md``).  A
    failed batch is bisected with fresh ``r``; a failing subset of at most
    :data:`EXACT_LEAF` glsns is checked glsn by glsn with
    :meth:`check_glsn`.  A glsn whose batch passed reports
    ``observed = expected``.  A glsn some node no longer holds, one with
    no majority anchor and one whose anchor is not in ``[1, n)`` never
    enter a batch: they go straight to :meth:`check_glsn` and are
    reported ``ok=False`` (``observed=0`` when a fragment is lost).
    """

    def __init__(self, store: DistributedLogStore) -> None:
        self.store = store
        self.accumulator: OneWayAccumulator = store.accumulator

    def _inputs(self, glsn: int, nodes: list[FragmentStore]) -> tuple[int, int]:
        """``(P, agreed anchor)`` of ``glsn``; ``P`` is 0 when a node lost
        its fragment."""
        product = 1
        anchors = []
        for node in nodes:
            try:
                product *= node.local_fragment(glsn).digest_exponent()
                anchors.append(node.expected_accumulator(glsn))
            except UnknownGlsnError:
                product = 0  # a node lost its fragment: nothing to fold
        if not anchors:
            raise UnknownGlsnError(f"no node holds glsn {glsn:#x}")
        return product, _agreed_anchor(anchors)

    def _all_inputs(
        self, glsns: list[int], nodes: list[FragmentStore]
    ) -> list[tuple[int, int]]:
        """``[_inputs(glsn, nodes) for glsn in glsns]``, a node's column at a
        time while every node holds every glsn (the recovered store's
        case); a node lacking one sends every glsn through :meth:`_inputs`."""
        if not glsns:
            return []
        products = [1] * len(glsns)
        columns = []
        try:
            for node in nodes:
                fragments = map(node.local_fragment, glsns)
                products = list(map(mul, products, map(Fragment.digest_exponent, fragments)))
                columns.append(list(map(node.expected_accumulator, glsns)))
        except UnknownGlsnError:
            return [self._inputs(glsn, nodes) for glsn in glsns]
        first = columns[0]
        if all(column == first for column in columns):
            return list(zip(products, first))
        return list(zip(products, map(_agreed_anchor, zip(*columns))))

    def _nodes(self) -> list[FragmentStore]:
        return [self.store.stores[node_id] for node_id in sorted(self.store.stores)]

    def check_glsn(self, glsn: int) -> IntegrityReport:
        """Fold every node's stored fragment; compare with the anchor."""
        product, expected = self._inputs(glsn, self._nodes())
        # One fixed-base power of the pre-multiplied exponents (eq. 9).
        observed = self.accumulator.base_power(product) if product else 0
        return IntegrityReport(
            glsn=glsn, ok=observed == expected != 0, expected=expected,
            observed=observed,
        )

    def check_all(self) -> list[IntegrityReport]:
        """Every glsn's report, the intact ones confirmed in one batch."""
        glsns = self.store.glsns
        nodes = self._nodes()
        n = self.accumulator.params.n
        reports: dict[int, IntegrityReport] = {}
        batch: list[tuple[int, int, int]] = []
        for glsn, (product, expected) in zip(glsns, self._all_inputs(glsns, nodes)):
            # An anchor outside [1, n) never equals a power mod n, but the
            # batch's products would reduce it: check such a glsn exactly.
            if product and 0 < expected < n:
                batch.append((glsn, expected, product))
            else:
                reports[glsn] = self.check_glsn(glsn)
        self._confirm(batch, reports)
        return [reports[glsn] for glsn in glsns]

    def _confirm(
        self, batch: list[tuple[int, int, int]], reports: dict[int, IntegrityReport]
    ) -> None:
        """Report every ``(glsn, anchor, P)`` of ``batch``: all intact when
        the batch test passes, else by bisection down to exact leaves."""
        if self._batch_holds(batch):
            for glsn, expected, _ in batch:
                reports[glsn] = IntegrityReport(
                    glsn=glsn, ok=True, expected=expected, observed=expected
                )
        elif len(batch) <= EXACT_LEAF:
            for glsn, _, _ in batch:
                reports[glsn] = self.check_glsn(glsn)
        else:
            mid = len(batch) // 2
            self._confirm(batch[:mid], reports)
            self._confirm(batch[mid:], reports)

    def _batch_holds(self, batch: list[tuple[int, int, int]]) -> bool:
        """Small-exponent test of ``anchor_g == x0^P_g`` for every entry.

        ``r`` is drawn from the operating system (``secrets``) on every
        call, never from a seeded stream: a tamperer who could predict
        ``r`` could forge a passing batch.
        """
        if not batch:
            return True
        noise = secrets.token_bytes(8 * len(batch))
        weights = [
            int.from_bytes(noise[at : at + 8], "big") | 1
            for at in range(0, len(noise), 8)
        ]
        params = self.accumulator.params
        lhs = self.accumulator.multi_power([anchor for _, anchor, _ in batch], weights)
        exponent = sum(w * product for w, (_, _, product) in zip(weights, batch))
        return lhs == pow(params.x0, exponent, params.n)

    def require_clean(self) -> None:
        """Raise :class:`IntegrityError` naming every tampered glsn."""
        bad = [r.glsn for r in self.check_all() if not r.ok]
        if bad:
            raise IntegrityError(
                "integrity violation at glsn(s): "
                + ", ".join(format(g, "x") for g in bad)
            )


@dataclass
class _RingState:
    reports: dict[int, IntegrityReport] = field(default_factory=dict)


class IntegrityNode:
    """Message-driven participant in the §4.1 accumulator ring.

    Each instance wraps one node's :class:`FragmentStore`.  The initiator
    calls :meth:`start_batch_check`; the token visits every node once and
    returns.

    The first hop of every token is ``x0^e mod n`` for the initiator's own
    fragment digest ``e`` and comes from the accumulator's fixed-base table
    (:meth:`~repro.crypto.accumulator.OneWayAccumulator.base_power`); later
    hops fold an in-flight token value with ``pow``.  Either way a hop
    folds through the node's memo (:meth:`FragmentStore.fold`), and
    ``crypto`` (a shared :class:`~repro.net.stats.CryptoOpCounter`) counts
    each glsn as ``<node>.modexp`` when folded or ``<node>.fold_reused``
    when the memo answered (a glsn the node lost counts as neither).
    """

    def __init__(
        self,
        node_id: str,
        store: FragmentStore,
        accumulator: OneWayAccumulator,
        ring: list[str],
        crypto=None,
    ) -> None:
        self.node_id = node_id
        self.store = store
        self.accumulator = accumulator
        # Order is honoured (quasi-commutativity makes any order valid),
        # so a failover supervisor can hand in a ring that avoids bad links.
        self.ring = list(ring)
        self.crypto = crypto
        self.state = _RingState()

    def _fold(
        self, transport, glsns: list[int], incoming: list[int], compute
    ) -> list[int]:
        """Fold through the store's memo; count real pows and reuses.

        Real pows also land on this node's open span of the transport's
        tracer (the handler span, or the initiator's ``node.integ.start``).
        """
        folded, computed, reused = self.store.fold(glsns, incoming, compute)
        if self.crypto is not None:
            for kind, count in (("modexp", computed), ("fold_reused", reused)):
                if count:
                    self.crypto.add(f"{self.node_id}.{kind}", count)
                    self.crypto.add(f"total.{kind}", count)
            if computed and transport.tracer.enabled:
                transport.tracer.add_cost(self.node_id, "modexp", computed)
        return folded

    def start_batch_check(self, transport, glsns: list[int]) -> None:
        """One token carrying every glsn's running value (we fold first)."""
        with transport.tracer.span("node.integ.start", {"node": self.node_id}):
            base_power = self.accumulator.base_power
            values = self._fold(
                transport, glsns, [self.accumulator.params.x0] * len(glsns),
                lambda _bases, exponents: [base_power(e) for e in exponents],
            )
            self._relay(transport, glsns, values, self._others())

    def _others(self) -> list[str]:
        return [n for n in self.ring if n != self.node_id]

    def _relay(
        self,
        transport,
        glsns: list[int],
        folded: list[int],
        remaining: list[str],
        origin: str | None = None,
    ) -> None:
        """Move a folded token on: to the next hop, else home to its origin."""
        origin = origin or self.node_id
        if remaining:
            msg = Message(
                src=self.node_id,
                dst=remaining[0],
                kind="integ.mpass",
                payload={
                    "glsns": glsns,
                    "values": folded,
                    "remaining": remaining[1:],
                    "origin": origin,
                },
            )
        else:
            msg = Message(
                src=self.node_id,
                dst=origin,
                kind="integ.mdone",
                payload={"glsns": glsns, "values": folded},
            )
        if msg.dst == self.node_id:  # a one-node ring: the token is already home
            self.handle(msg, transport)
        else:
            transport.send(msg)

    def handle(self, msg: Message, transport) -> None:
        payload = msg.payload
        if msg.kind == "integ.mdone":
            return self._finish_batch(payload["glsns"], payload["values"])
        if msg.kind != "integ.mpass":
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")
        glsns = payload["glsns"]
        folded = self._fold(
            transport, glsns, payload["values"], self.accumulator.step_many
        )
        self._relay(transport, glsns, folded, payload["remaining"], payload["origin"])

    def _finish_batch(self, glsns: list[int], values: list[int]) -> None:
        self.state.reports.update(
            zip(glsns, self.store.verdicts(glsns, values, _report))
        )


def _report(glsn: int, observed: int, expected: int) -> IntegrityReport:
    # No anchor (expected 0) means this node lost the glsn: never intact.
    return IntegrityReport(
        glsn=glsn, ok=observed == expected != 0, expected=expected,
        observed=observed,
    )


def _start_per_glsn(node: IntegrityNode, transport, glsns: list[int]) -> None:
    """One single-glsn token per glsn: the O(nodes × glsns) legacy schedule."""
    for glsn in glsns:
        node.start_batch_check(transport, [glsn])


def _reports_of(node: IntegrityNode, glsns: list[int]):
    """The per-glsn verdicts in request order; ``None`` while any is missing."""
    reports = node.state.reports
    if not all(map(reports.__contains__, glsns)):
        return None
    return list(map(reports.__getitem__, glsns))


async def _supervised_round(
    store: DistributedLogStore,
    glsns: list[int] | None,
    initiator: str | None,
    net: SimNetwork | None,
    deadline: Deadline | None,
    crypto,
    start,
    verdicts_of,
) -> list:
    """Failover-supervised §4.1 ring: the one way a token round runs.

    ``start(initiator_node, net, glsns)`` puts the token(s) on the ring and
    ``verdicts_of(initiator_node, glsns)`` reads the finished reports off
    the initiator (``None`` while the round is incomplete) — the public
    rounds differ in nothing else.

    A bad link is routed around (any ring order is valid by eq. 9
    quasi-commutativity); a dead node is excluded, in which case the
    resulting reports are *unverified* — the fold is missing that node's
    fragments, so neither "intact" nor "tampered" can be claimed.  The
    initiator is essential: it holds the anchor the token is compared to.
    On a transport without the reliability layer nothing can be diagnosed,
    so a stranded round is a typed :class:`~repro.errors.RingFailoverError`
    after its single launch.
    """
    net = net or SimNetwork()
    ring_all = sorted(store.stores)
    initiator = initiator or ring_all[0]
    if initiator not in ring_all:
        raise ProtocolAbortError(f"initiator {initiator!r} is not a DLA node")
    targets = list(glsns) if glsns is not None else store.glsns
    if not targets:
        return []
    def launch(alive: list[str], avoid: frozenset):
        if initiator not in alive:
            raise RingFailoverError(
                f"integrity_ring: initiator {initiator!r} is unreachable"
            )
        order = ring_avoiding(alive, avoid)
        pivot = order.index(initiator)
        order = order[pivot:] + order[:pivot]
        nodes = {
            nid: IntegrityNode(
                nid, store.stores[nid], store.accumulator, order,
                crypto=crypto,
            )
            for nid in alive
        }
        for nid, node in nodes.items():
            net.register(nid, node.handle)
        start(nodes[initiator], net, targets)

        def collect():
            verdicts = verdicts_of(nodes[initiator], targets)
            return None if verdicts is None else {initiator: verdicts}

        return collect

    outcome = await supervise_ring_async(
        net, "integrity_ring", ring_all, launch,
        essential=[initiator], min_parties=1, deadline=deadline,
    )
    verdicts = outcome.values[initiator]
    if outcome.degraded:
        # Reports from an incomplete fold are explicitly unverified.
        verdicts = [
            replace(v, ok=False, verified=False, skipped_nodes=outcome.skipped)
            for v in verdicts
        ]
    return verdicts


async def run_integrity_round_async(
    store: DistributedLogStore,
    glsns: list[int] | None = None,
    initiator: str | None = None,
    net: SimNetwork | None = None,
    deadline: Deadline | None = None,
    crypto=None,
) -> list[IntegrityReport]:
    """Run the ring protocol for each glsn on a simulated network.

    Returns one report per glsn as observed by the initiating node.
    Circulates one single-glsn token per glsn — O(nodes × glsns)
    messages; see :func:`run_batched_integrity_round` for the O(nodes)
    form.  The ring is failover-supervised (see
    :func:`_supervised_round`).  ``crypto`` is forwarded to every
    :class:`IntegrityNode` (per-node and total fold counts).

    ``run_integrity_round`` is :func:`~repro.twin.sync_twin` of this
    coroutine (one body, two runners: ``docs/async.md``).
    """
    return await _supervised_round(
        store, glsns, initiator, net, deadline, crypto,
        _start_per_glsn, _reports_of,
    )


async def run_batched_integrity_round_async(
    store: DistributedLogStore,
    glsns: list[int] | None = None,
    initiator: str | None = None,
    net: SimNetwork | None = None,
    deadline: Deadline | None = None,
    crypto=None,
) -> list[IntegrityReport]:
    """Batched §4.1 ring: one multi-glsn token, one message per hop.

    Each hop folds its own stored fragment for *every* requested glsn
    before forwarding, so an N-glsn check costs exactly ``nodes``
    messages ((nodes−1) ``integ.mpass`` + 1 ``integ.mdone``) instead of
    ``nodes × N``.  The per-glsn folds are value-identical to
    :func:`run_integrity_round` — same observed accumulators, same
    reports — only the transcript's message count changes.

    ``run_batched_integrity_round`` is :func:`~repro.twin.sync_twin` of this
    coroutine (one body, two runners: ``docs/async.md``).
    """
    return await _supervised_round(
        store, glsns, initiator, net, deadline, crypto,
        IntegrityNode.start_batch_check, _reports_of,
    )


run_integrity_round = sync_twin(run_integrity_round_async)
run_batched_integrity_round = sync_twin(run_batched_integrity_round_async)


# The combined product-fold ring is gone; the e2e tracer still pins these
# two names, so they remain as the batched round under one verdict.
async def run_combined_integrity_round_async(store, **kwargs) -> BatchIntegrityReport:
    reports = await run_batched_integrity_round_async(store, **kwargs)
    skipped = tuple(sorted({n for r in reports for n in r.skipped_nodes}))
    return BatchIntegrityReport(
        glsns=tuple(r.glsn for r in reports), ok=all(r.ok for r in reports),
        mode="per-glsn", reports=tuple(reports), verified=not skipped,
        skipped_nodes=skipped,
    )


run_combined_integrity_round = sync_twin(run_combined_integrity_round_async)


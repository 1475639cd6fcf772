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
(:meth:`~repro.logstore.store.FragmentStore.fold`) and recomputes only the
glsns whose incoming token value or stored digest exponent differ.  A
tamper changes the exponent at one node and therefore the incoming value
at every later hop, so detection is exactly that of a memo-free sweep.

The in-process checker memoizes per-glsn reports keyed by each node's
fragment version (``repro.cache``), so ``check_all`` after an append folds
only the new glsn.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.cache import LruCache
from repro.crypto.accumulator import OneWayAccumulator
from repro.errors import IntegrityError, ProtocolAbortError, RingFailoverError
from repro.logstore.store import DistributedLogStore, FragmentStore
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline, ring_avoiding, supervise_ring_async
from repro.twin import sync_twin

__all__ = [
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


class IntegrityChecker:
    """In-process integrity verification over a :class:`DistributedLogStore`.

    Per-glsn reports are memoized keyed by every node's fragment version
    for that glsn: a glsn whose fragments no node has touched since the
    last check is served from cache, so ``check_all`` after an append
    re-folds only the newly appended glsn.  ``REPRO_CACHE=off`` restores
    the always-recompute behaviour.
    """

    def __init__(self, store: DistributedLogStore, metrics=None) -> None:
        self.store = store
        self.accumulator: OneWayAccumulator = store.accumulator
        self._report_cache = LruCache("integrity.report", metrics=metrics)

    def _cache_key(self, glsn: int) -> tuple:
        return (glsn,) + tuple(
            (node_id, self.store.stores[node_id].fragment_version(glsn))
            for node_id in sorted(self.store.stores)
        )

    def check_glsn(self, glsn: int) -> IntegrityReport:
        """Fold every node's stored fragment; compare with the anchor."""
        key = self._cache_key(glsn)
        cached = self._report_cache.get(key)
        if cached is not None:
            return cached
        report = self._check_glsn_uncached(glsn)
        self._report_cache.put(key, report)
        return report

    def _check_glsn_uncached(self, glsn: int) -> IntegrityReport:
        product = 1
        expected = None
        for node_id in sorted(self.store.stores):
            node = self.store.stores[node_id]
            product *= node.local_fragment(glsn).digest_exponent()
            anchor = node.expected_accumulator(glsn)
            if expected is None:
                expected = anchor
            elif expected != anchor:
                # Nodes disagree about the anchor itself: a compromised node
                # rewrote its copy.  Report against the majority value.
                anchors = [
                    s.expected_accumulator(glsn) for s in self.store.stores.values()
                ]
                expected = max(set(anchors), key=anchors.count)
        # One fixed-base power of the pre-multiplied exponents (eq. 9).
        observed = self.accumulator.base_power(product)
        return IntegrityReport(
            glsn=glsn, ok=observed == expected, expected=expected, observed=observed
        )

    def check_all(self) -> list[IntegrityReport]:
        return [self.check_glsn(glsn) for glsn in self.store.glsns]

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
    when the memo answered.
    """

    def __init__(
        self,
        node_id: str,
        store: FragmentStore,
        accumulator: OneWayAccumulator,
        ring: list[str],
        crypto=None,
        telemetry=None,
    ) -> None:
        self.node_id = node_id
        self.store = store
        self.accumulator = accumulator
        # Order is honoured (quasi-commutativity makes any order valid),
        # so a failover supervisor can hand in a ring that avoids bad links.
        self.ring = list(ring)
        self.crypto = crypto
        # Cross-node tracing (repro.obs.flight.TelemetryHub): fold counts
        # attribute to this node's open flight-recorder span, and the
        # initiator's bootstrap fold opens one explicitly.
        self.telemetry = telemetry
        self.state = _RingState()

    def _node_span(self, name: str):
        if self.telemetry is None:
            return nullcontext(None)
        return self.telemetry.node_span(self.node_id, name, {"node": self.node_id})

    def _fold(self, glsns: list[int], incoming: list[int], compute) -> list[int]:
        """Fold through the store's memo; count real pows and reuses."""
        folded, computed = self.store.fold(glsns, incoming, compute)
        if self.crypto is not None:
            reused = len(glsns) - computed
            for kind, count in (("modexp", computed), ("fold_reused", reused)):
                if count:
                    self.crypto.add(f"{self.node_id}.{kind}", count)
                    self.crypto.add(f"total.{kind}", count)
            if computed and self.telemetry is not None:
                self.telemetry.add_cost(self.node_id, "modexp", computed)
        return folded

    def start_batch_check(self, transport, glsns: list[int]) -> None:
        """One token carrying every glsn's running value (we fold first)."""
        with self._node_span("node.integ.start"):
            base_power = self.accumulator.base_power
            values = self._fold(
                glsns, [self.accumulator.params.x0] * len(glsns),
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
        folded = self._fold(glsns, payload["values"], self.accumulator.step_many)
        self._relay(transport, glsns, folded, payload["remaining"], payload["origin"])

    def _finish_batch(self, glsns: list[int], values: list[int]) -> None:
        for glsn, observed in zip(glsns, values):
            expected = self.store.expected_accumulator(glsn)
            self.state.reports[glsn] = IntegrityReport(
                glsn=glsn, ok=observed == expected, expected=expected,
                observed=observed,
            )


def _start_per_glsn(node: IntegrityNode, transport, glsns: list[int]) -> None:
    """One single-glsn token per glsn: the O(nodes × glsns) legacy schedule."""
    for glsn in glsns:
        node.start_batch_check(transport, [glsn])


def _reports_of(node: IntegrityNode, glsns: list[int]):
    """The per-glsn verdicts in request order; ``None`` while any is missing."""
    reports = node.state.reports
    if any(glsn not in reports for glsn in glsns):
        return None
    return [reports[glsn] for glsn in glsns]


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
    telemetry = getattr(net, "telemetry", None)

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
                crypto=crypto, telemetry=telemetry,
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


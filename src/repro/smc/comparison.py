"""Secure comparison <ₛ between two private values (paper §2, §3).

The auditing predicates need ``<, >, =, ≤, ≥, ≠`` across DLA nodes.
Equality has its own protocol (:mod:`repro.smc.equality`); the ordered
comparisons reduce to the two-party case of the blind-TTP monotone-map
construction of §3.3: both parties blind with the shared secret strictly
increasing map, the TTP compares the blinded values and returns one of
``lt / eq / gt``.

:func:`secure_compare` wraps the exchange; :func:`evaluate_operator` maps
the paper's six comparison operators onto the trichotomy verdict.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, ProtocolAbortError, SmcError
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline, standby_id
from repro.smc.base import SmcContext, SmcResult, protocol_span, run_supervised
from repro.smc.ranking import MonotoneBlinding

__all__ = [
    "secure_compare",
    "secure_compare_batch",
    "evaluate_operator",
    "COMPARISON_OPERATORS",
]

PROTOCOL = "secure_compare"

COMPARISON_OPERATORS = ("<", ">", "=", "!=", "<=", ">=")


class _CompareTtp:
    """Blind TTP comparing exactly two blinded values per session."""

    def __init__(self, ttp_id: str, ctx: SmcContext) -> None:
        self.ttp_id = ttp_id
        self.ctx = ctx
        self._pending: dict[str, dict] = {}

    def handle(self, msg: Message, transport) -> None:
        if msg.kind != "scmp.blinded":
            raise ProtocolAbortError(f"TTP got unexpected {msg.kind!r}")
        session = msg.payload["session"]
        entry = self._pending.setdefault(
            session, {"values": {}, "left": msg.payload["left"]}
        )
        entry["values"][msg.src] = msg.payload["w"]
        if len(entry["values"]) < 2:
            return
        left = entry["left"]
        w_left = entry["values"][left]
        w_right = next(w for pid, w in entry["values"].items() if pid != left)
        if w_left < w_right:
            verdict = "lt"
        elif w_left > w_right:
            verdict = "gt"
        else:
            verdict = "eq"
        self.ctx.leakage.record(
            PROTOCOL, self.ttp_id, "order_statistics",
            f"TTP learns the order of two values and their difference scaled "
            f"by the map's slope a (session {session})",
        )
        for pid in entry["values"]:
            transport.send(
                Message(
                    src=self.ttp_id,
                    dst=pid,
                    kind="scmp.verdict",
                    payload={"session": session, "verdict": verdict},
                )
            )
        del self._pending[session]


class _CompareParty:
    def __init__(
        self,
        party_id: str,
        value: int,
        ctx: SmcContext,
        blinding: MonotoneBlinding,
        ttp_id: str,
        session: str,
        left_id: str,
    ) -> None:
        self.party_id = party_id
        self.value = value
        self.ctx = ctx
        self.blinding = blinding
        self.ttp_id = ttp_id
        self.session = session
        self.left_id = left_id
        self.verdict: str | None = None

    def start(self, transport) -> None:
        with self.ctx.node_span(self.party_id, "node.scmp.blind"):
            transport.send(
                Message(
                    src=self.party_id,
                    dst=self.ttp_id,
                    kind="scmp.blinded",
                    payload={
                        "session": self.session,
                        "w": self.blinding.apply(self.value),
                        "left": self.left_id,
                    },
                )
            )

    def handle(self, msg: Message, transport) -> None:
        if msg.kind != "scmp.verdict":
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")
        self.verdict = msg.payload["verdict"]


def secure_compare(
    ctx: SmcContext,
    left: tuple[str, int],
    right: tuple[str, int],
    value_bound: int | None = None,
    ttp_id: str = "ttp",
    net: SimNetwork | None = None,
    session: str = "cmp-0",
    deadline: Deadline | None = None,
) -> SmcResult:
    """Blind-TTP trichotomy comparison of two private non-negative ints.

    Returns an :class:`SmcResult` whose per-observer value is one of
    ``"lt" | "eq" | "gt"`` describing ``left ? right``.  The run is
    supervised: on a resilient network an unreachable TTP fails over to a
    standby id (:func:`~repro.resilience.standby_id`); the two input
    parties are essential (a dead one raises
    :class:`~repro.errors.RingFailoverError`).
    """
    (lid, lval), (rid, rval) = left, right
    if lid == rid:
        raise ConfigurationError("comparison requires two distinct parties")
    if lval < 0 or rval < 0:
        raise ConfigurationError("comparison takes non-negative integers")
    bound = value_bound if value_bound is not None else max(lval, rval)
    blinding = MonotoneBlinding.agree(
        ctx, f"{min(lid, rid)}|{max(lid, rid)}|{session}", bound
    )
    net = net or SimNetwork(tracer=ctx.tracer)
    with protocol_span(
        ctx, net, "smc.compare", {"session": session, "batch": 1}
    ):
        def build(alive: list[str], avoid: frozenset) -> dict[str, _CompareParty]:
            ttp_node_id = standby_id(ttp_id, avoid)
            net.register(ttp_node_id, _CompareTtp(ttp_node_id, ctx).handle)
            return {
                pid: _CompareParty(
                    pid, value, ctx, blinding, ttp_node_id, session, lid
                )
                for pid, value in (left, right)
            }

        return run_supervised(
            ctx, net, PROTOCOL, [lid, rid], build, lambda party: party.verdict,
            rounds=2, essential=(lid, rid), min_parties=2, deadline=deadline,
        )


class _BatchCompareTtp:
    """Blind TTP comparing aligned vectors of blinded values."""

    def __init__(self, ttp_id: str, ctx: SmcContext) -> None:
        self.ttp_id = ttp_id
        self.ctx = ctx
        self._pending: dict[str, dict] = {}

    def handle(self, msg: Message, transport) -> None:
        if msg.kind != "scmpb.blinded":
            raise ProtocolAbortError(f"TTP got unexpected {msg.kind!r}")
        session = msg.payload["session"]
        entry = self._pending.setdefault(
            session, {"vectors": {}, "left": msg.payload["left"]}
        )
        entry["vectors"][msg.src] = msg.payload["ws"]
        if len(entry["vectors"]) < 2:
            return
        left = entry["left"]
        left_vec = entry["vectors"][left]
        right_vec = next(v for pid, v in entry["vectors"].items() if pid != left)
        if len(left_vec) != len(right_vec):
            raise ProtocolAbortError(
                "batch comparison vectors have mismatched lengths"
            )
        verdicts = [
            "lt" if a < b else ("gt" if a > b else "eq")
            for a, b in zip(left_vec, right_vec)
        ]
        # W = a·Y + b with no wrap or jitter: every blinded difference is a
        # multiple of a, so their gcd is a and (W_i - W_0) / a = Y_i - Y_0.
        self.ctx.leakage.record(
            PROTOCOL, self.ttp_id, "order_statistics",
            f"TTP learns {len(verdicts)} pairwise orderings and every compared "
            f"value up to one common offset: the gcd of the blinded differences "
            f"is the map's slope a (session {session})",
        )
        for pid in entry["vectors"]:
            transport.send(
                Message(
                    src=self.ttp_id,
                    dst=pid,
                    kind="scmpb.verdict",
                    payload={"session": session, "verdicts": verdicts},
                )
            )
        del self._pending[session]


class _BatchCompareParty:
    def __init__(
        self,
        party_id: str,
        values: list[int],
        ctx: SmcContext,
        blinding: MonotoneBlinding,
        ttp_id: str,
        session: str,
        left_id: str,
    ) -> None:
        self.party_id = party_id
        self.values = values
        self.ctx = ctx
        self.blinding = blinding
        self.ttp_id = ttp_id
        self.session = session
        self.left_id = left_id
        self.verdicts: list[str] | None = None

    def start(self, transport) -> None:
        with self.ctx.node_span(self.party_id, "node.scmpb.blind"):
            transport.send(
                Message(
                    src=self.party_id,
                    dst=self.ttp_id,
                    kind="scmpb.blinded",
                    payload={
                        "session": self.session,
                        "ws": [self.blinding.apply(v) for v in self.values],
                        "left": self.left_id,
                    },
                )
            )

    def handle(self, msg: Message, transport) -> None:
        if msg.kind != "scmpb.verdict":
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")
        self.verdicts = list(msg.payload["verdicts"])


def secure_compare_batch(
    ctx: SmcContext,
    left: tuple[str, list[int]],
    right: tuple[str, list[int]],
    value_bound: int | None = None,
    ttp_id: str = "ttp",
    net: SimNetwork | None = None,
    session: str = "cmpb-0",
    deadline: Deadline | None = None,
) -> SmcResult:
    """Compare aligned vectors of private values in ONE round trip each.

    The auditing executor's cross-order predicates compare one value pair
    per common glsn; running :func:`secure_compare` per glsn costs 4
    messages each.  Batching sends all blinded values in a single message
    per party (2 submissions + 2 verdict deliveries total), at identical
    leakage per comparison.  Returns a verdict list aligned with the
    inputs.
    """
    (lid, lvals), (rid, rvals) = left, right
    if lid == rid:
        raise ConfigurationError("comparison requires two distinct parties")
    if len(lvals) != len(rvals):
        raise ConfigurationError("batch comparison needs aligned vectors")
    if any(v < 0 for v in lvals) or any(v < 0 for v in rvals):
        raise ConfigurationError("comparison takes non-negative integers")
    if not lvals:
        return SmcResult(
            protocol=PROTOCOL, observers=frozenset([lid, rid]),
            values={lid: [], rid: []}, rounds=0,
        )
    bound = value_bound if value_bound is not None else max(max(lvals), max(rvals))
    blinding = MonotoneBlinding.agree(
        ctx, f"{min(lid, rid)}|{max(lid, rid)}|{session}", bound
    )
    net = net or SimNetwork(tracer=ctx.tracer)
    with protocol_span(
        ctx, net, "smc.compare", {"session": session, "batch": len(lvals)}
    ):
        def build(
            alive: list[str], avoid: frozenset
        ) -> dict[str, _BatchCompareParty]:
            ttp_node_id = standby_id(ttp_id, avoid)
            net.register(ttp_node_id, _BatchCompareTtp(ttp_node_id, ctx).handle)
            return {
                pid: _BatchCompareParty(
                    pid, values, ctx, blinding, ttp_node_id, session, lid
                )
                for pid, values in (left, right)
            }

        return run_supervised(
            ctx, net, PROTOCOL, [lid, rid], build, lambda party: party.verdicts,
            rounds=2, essential=(lid, rid), min_parties=2, deadline=deadline,
        )


def evaluate_operator(op: str, verdict: str) -> bool:
    """Map a trichotomy verdict onto one of the paper's six operators."""
    if verdict not in ("lt", "eq", "gt"):
        raise SmcError(f"unknown comparison verdict {verdict!r}")
    table = {
        "<": verdict == "lt",
        ">": verdict == "gt",
        "=": verdict == "eq",
        "!=": verdict != "eq",
        "<=": verdict in ("lt", "eq"),
        ">=": verdict in ("gt", "eq"),
    }
    if op not in table:
        raise SmcError(f"unknown comparison operator {op!r}")
    return table[op]


# benchmarks/e2e/layers.py pins these names; ROADMAP item 1(b) deletes them.
def secure_compare_async(*args, **kwargs): return secure_compare(*args, **kwargs)
def secure_compare_batch_async(*args, **kwargs): return secure_compare_batch(*args, **kwargs)

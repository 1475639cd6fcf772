"""Secure equality checking =ₛ (paper §3.2).

Two parties hold ``X_R`` and ``X_M`` privately and want to learn whether
they are equal without revealing them.  The paper gives two routes; both
are implemented:

* **Commutative route** — run the secure set intersection with singleton
  sets; equal iff the intersection is non-empty.  No TTP needed.
* **Randomized-mapping route** — the two parties secretly agree on an
  injective map and random affine blinding ``W = (a·Y + b) mod p`` with
  ``a ≢ 0``, send their blinded values to a *blind TTP*, and the TTP
  compares ``W_R = W_M`` and returns the verdict.  The TTP never sees the
  inputs; affine blinding with secret ``(a, b)`` makes a single blinded
  value information-theoretically uniform.

:func:`secure_equality` (the randomized-mapping route) is the stand-alone
§3.2 primitive: one value pair, O(1) messages through the blind TTP.  The
DLA query executor does not call it: a cross-node ``A = B`` predicate is a
join over whole columns, planned as one ``ssi`` over ``glsn|value``
composites (:meth:`~repro.audit.executor.QueryExecutor._cross_equality`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, ProtocolAbortError
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline, standby_id
from repro.smc.base import SmcContext, SmcResult, protocol_span, run_supervised
from repro.smc.intersection import secure_set_intersection_async
from repro.twin import sync_twin

__all__ = [
    "AffineBlinding",
    "BlindTtp",
    "EqualityParty",
    "secure_equality",
    "secure_equality_async",
    "secure_equality_commutative",
    "secure_equality_commutative_async",
]

PROTOCOL = "secure_equality"


@dataclass(frozen=True)
class AffineBlinding:
    """The shared secret map ``Y -> (a·Y + b) mod p``.

    ``a`` must be non-zero mod ``p``; both parties derive the same
    instance out-of-band (in the protocols here, from the pairwise secret
    channel the paper's model assumes).
    """

    a: int
    b: int
    p: int

    def __post_init__(self) -> None:
        if self.a % self.p == 0:
            raise ConfigurationError("blinding slope a must be non-zero mod p")

    @classmethod
    def agree(cls, ctx: SmcContext, pair_label: str) -> "AffineBlinding":
        """Deterministically derive a pair-secret blinding from the context.

        Models the out-of-band agreement; both parties call with the same
        label (e.g. ``"P1|P2|query-17"``) and obtain the same map.
        """
        p = ctx.prime
        rng = ctx.rng.spawn(f"blinding:{pair_label}")
        return cls(a=rng.randrange(1, p), b=rng.randbelow(p), p=p)

    def apply(self, value: int) -> int:
        return (self.a * value + self.b) % self.p


class BlindTtp:
    """The blind coordinator: compares blinded values, learns nothing else.

    One TTP instance can serve many comparison sessions concurrently;
    sessions are keyed by ``session`` in the payload.
    """

    def __init__(self, ttp_id: str, ctx: SmcContext) -> None:
        self.ttp_id = ttp_id
        self.ctx = ctx
        self._pending: dict[str, dict] = {}

    def handle(self, msg: Message, transport) -> None:
        if msg.kind != "seq.blinded":
            raise ProtocolAbortError(f"TTP got unexpected {msg.kind!r}")
        session = msg.payload["session"]
        entry = self._pending.setdefault(
            session, {"values": {}, "reply_to": msg.payload["reply_to"]}
        )
        entry["values"][msg.src] = msg.payload["w"]
        if len(entry["values"]) < 2:
            return
        (w1, w2) = entry["values"].values()
        equal = w1 == w2
        self.ctx.leakage.record(
            PROTOCOL, self.ttp_id, "equality_verdict",
            f"TTP learns whether the two blinded values match (session {session})",
        )
        for dst in entry["reply_to"]:
            transport.send(
                Message(
                    src=self.ttp_id,
                    dst=dst,
                    kind="seq.verdict",
                    payload={"session": session, "equal": equal},
                )
            )
        del self._pending[session]


class EqualityParty:
    """One of the two comparing parties in the randomized-mapping route."""

    def __init__(
        self,
        party_id: str,
        value,
        ctx: SmcContext,
        blinding: AffineBlinding,
        ttp_id: str,
        session: str,
        reply_to: list[str],
    ) -> None:
        self.party_id = party_id
        self.ctx = ctx
        self.blinding = blinding
        self.ttp_id = ttp_id
        self.session = session
        self.reply_to = reply_to
        # The "random mapping table" of the paper: any injective map into
        # Z_p.  Hash-encoding is injective w.h.p. and needs no shared table.
        self.mapped = ctx.encoder.encode_hashed(value)
        self.verdict: bool | None = None

    def start(self, transport) -> None:
        with self.ctx.node_span(
            self.party_id, "node.seq.blind", {"node": self.party_id}
        ):
            transport.send(
                Message(
                    src=self.party_id,
                    dst=self.ttp_id,
                    kind="seq.blinded",
                    payload={
                        "session": self.session,
                        "w": self.blinding.apply(self.mapped),
                        "reply_to": self.reply_to,
                    },
                )
            )

    def handle(self, msg: Message, transport) -> None:
        if msg.kind != "seq.verdict":
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")
        self.verdict = bool(msg.payload["equal"])


async def secure_equality_async(
    ctx: SmcContext,
    left: tuple[str, object],
    right: tuple[str, object],
    ttp_id: str = "ttp",
    net: SimNetwork | None = None,
    session: str = "eq-0",
    deadline: Deadline | None = None,
) -> SmcResult:
    """Randomized-mapping equality between two (party, value) pairs.

    Both parties learn the verdict; the TTP learns only the verdict.  The
    run is supervised: on a resilient network an unreachable TTP fails over
    to a standby id (``"ttp~1"``, ...); the two input parties are
    essential, so a dead party aborts with a typed
    :class:`~repro.errors.RingFailoverError` rather than a silent partial
    answer.

    ``secure_equality`` is :func:`~repro.twin.sync_twin` of this coroutine
    (one body, two runners: ``docs/async.md``).
    """
    lid, rid = left[0], right[0]
    if lid == rid:
        raise ConfigurationError("equality requires two distinct parties")
    net = net or SimNetwork(tracer=ctx.tracer)
    with protocol_span(
        ctx,
        net,
        "smc.equality",
        {"route": "blind_ttp", "session": session},
    ):
        blinding = AffineBlinding.agree(
            ctx, f"{min(lid, rid)}|{max(lid, rid)}|{session}"
        )
        reply_to = [lid, rid]

        def build(alive: list[str], avoid: frozenset) -> dict[str, EqualityParty]:
            ttp_node_id = standby_id(ttp_id, avoid)
            net.register(ttp_node_id, BlindTtp(ttp_node_id, ctx).handle)
            return {
                pid: EqualityParty(
                    pid, value, ctx, blinding, ttp_node_id, session, reply_to
                )
                for pid, value in (left, right)
            }

        return await run_supervised(
            ctx, net, PROTOCOL, reply_to, build, lambda party: party.verdict,
            rounds=2, essential=(lid, rid), min_parties=2, deadline=deadline,
        )


secure_equality = sync_twin(secure_equality_async)


async def secure_equality_commutative_async(
    ctx: SmcContext,
    left: tuple[str, object],
    right: tuple[str, object],
    net: SimNetwork | None = None,
) -> SmcResult:
    """Equality via singleton secure set intersection (no TTP).

    "When the set size of S_i = 1, the secure set intersection could be
    used for secure equality comparison."

    ``secure_equality_commutative`` is :func:`~repro.twin.sync_twin` of this
    coroutine (one body, two runners: ``docs/async.md``).
    """
    (lid, lval), (rid, rval) = left, right
    with ctx.tracer.span("smc.equality", {"route": "commutative"}):
        result = await secure_set_intersection_async(
            ctx, {lid: [lval], rid: [rval]}, net=net, shuffle=False
        )
    equal = len(result.any_value) == 1
    return SmcResult(
        protocol=PROTOCOL,
        observers=result.observers,
        values={obs: equal for obs in result.observers},
        rounds=result.rounds,
    )


secure_equality_commutative = sync_twin(secure_equality_commutative_async)

"""Secure distributed sorting: Maxₛ, Minₛ, Rankₛ (paper §3.3).

``n`` nodes each hold a secret number ``x_i``.  They want to learn *who*
holds the maximum / minimum, and interested parties want the rank of their
own number — without anyone learning the numbers.

The paper's relaxed construction: "all n parties negotiate for a
transformation, and let a blind TTP process these transformed numbers."
We use a shared secret strictly-increasing affine map ``W = a·Y + b``
(``a > 0``), with the working modulus chosen large enough that no value
wraps — order is exactly preserved, so the blind TTP can sort the blinded
values and answer argmax / argmin / rank queries while seeing only blinded
magnitudes.

Leakage (recorded): the TTP learns the *order statistics* of the inputs
and the *scaled pairwise gaps* ``a·(x_i - x_j)`` — secondary information
permitted by Definition 1.  To blunt gap leakage, callers can enable
``rank_only_noise``: each party adds a small shared-per-party jitter drawn
below ``a`` (order preserved for distinct values because jitter < a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ProtocolAbortError
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline, standby_id
from repro.smc.base import SmcContext, SmcResult, protocol_span, run_supervised

__all__ = [
    "MonotoneBlinding",
    "RankingTtp",
    "RankingParty",
    "secure_ranking",
]

PROTOCOL = "secure_ranking"


@dataclass(frozen=True)
class MonotoneBlinding:
    """Shared secret strictly-increasing map ``Y -> a·Y + b`` (no wrap).

    ``value_bound`` is the public a-priori bound on inputs; the map is
    injective and order-preserving on ``[0, value_bound]``.
    """

    a: int
    b: int
    value_bound: int

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ConfigurationError("slope a must be positive")
        if self.b < 0:
            raise ConfigurationError("offset b must be non-negative")

    @classmethod
    def agree(
        cls, ctx: SmcContext, group_label: str, value_bound: int
    ) -> "MonotoneBlinding":
        """Derive a shared map from the group's out-of-band secret."""
        rng = ctx.rng.spawn(f"monotone:{group_label}")
        a = rng.randrange(2**16, 2**32)
        b = rng.randrange(0, a * max(value_bound, 1))
        return cls(a=a, b=b, value_bound=value_bound)

    def apply(self, value: int, jitter: int = 0) -> int:
        if not 0 <= value <= self.value_bound:
            raise ConfigurationError(
                f"value {value} outside the agreed bound [0, {self.value_bound}]"
            )
        if not 0 <= jitter < self.a:
            raise ConfigurationError("jitter must lie in [0, a)")
        return self.a * value + self.b + jitter


class RankingTtp:
    """Blind coordinator: sorts blinded values and answers rank queries."""

    def __init__(self, ttp_id: str, ctx: SmcContext, expected: int) -> None:
        self.ttp_id = ttp_id
        self.ctx = ctx
        self.expected = expected
        self._blinded: dict[str, int] = {}
        self._requests: list[str] = []

    def handle(self, msg: Message, transport) -> None:
        if msg.kind != "rank.blinded":
            raise ProtocolAbortError(f"TTP got unexpected {msg.kind!r}")
        self._blinded[msg.src] = msg.payload["w"]
        self._requests.append(msg.src)
        if len(self._blinded) < self.expected:
            return
        # Sort ascending; ties broken by party id for determinism.
        ordering = sorted(self._blinded.items(), key=lambda kv: (kv[1], kv[0]))
        ranks = {pid: rank for rank, (pid, _w) in enumerate(ordering, start=1)}
        argmin = ordering[0][0]
        argmax = ordering[-1][0]
        self.ctx.leakage.record(
            PROTOCOL, self.ttp_id, "order_statistics",
            f"TTP learns the full blinded ordering of {self.expected} parties",
        )
        self.ctx.leakage.record(
            PROTOCOL, self.ttp_id, "scaled_gap",
            "TTP sees pairwise differences scaled by the secret slope a",
        )
        for pid in self._blinded:
            transport.send(
                Message(
                    src=self.ttp_id,
                    dst=pid,
                    kind="rank.verdict",
                    payload={
                        "rank": ranks[pid],
                        "argmax": argmax,
                        "argmin": argmin,
                        "n": self.expected,
                    },
                )
            )


class RankingParty:
    """One secret-holder in the ranking protocol."""

    def __init__(
        self,
        party_id: str,
        value: int,
        ctx: SmcContext,
        blinding: MonotoneBlinding,
        ttp_id: str,
        rank_only_noise: bool = False,
    ) -> None:
        self.party_id = party_id
        self.value = value
        self.ctx = ctx
        self.blinding = blinding
        self.ttp_id = ttp_id
        jitter = 0
        if rank_only_noise:
            jitter = ctx.party_rng(party_id).randbelow(blinding.a)
        self._jitter = jitter
        self.verdict: dict | None = None

    def start(self, transport) -> None:
        with self.ctx.node_span(self.party_id, "node.rank.blind"):
            transport.send(
                Message(
                    src=self.party_id,
                    dst=self.ttp_id,
                    kind="rank.blinded",
                    payload={"w": self.blinding.apply(self.value, self._jitter)},
                )
            )

    def handle(self, msg: Message, transport) -> None:
        if msg.kind != "rank.verdict":
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")
        self.verdict = dict(msg.payload)


def secure_ranking(
    ctx: SmcContext,
    values: dict[str, int],
    value_bound: int | None = None,
    ttp_id: str = "ttp",
    net: SimNetwork | None = None,
    rank_only_noise: bool = False,
    group_label: str = "rank-0",
    deadline: Deadline | None = None,
) -> SmcResult:
    """Run Maxₛ / Minₛ / Rankₛ in one round through a blind TTP.

    Every party learns ``argmax``, ``argmin`` and *its own* rank (1-based,
    ascending).  Per-party results differ only in the ``rank`` field.

    ``rank_only_noise`` adds sub-slope jitter so the TTP's scaled-gap
    leakage is perturbed; ordering of *distinct* values is unaffected, but
    equal values may order arbitrarily (they already tie-break by id).

    The run is supervised: on a resilient network an unreachable TTP fails
    over to a standby id, and an unreachable party is excluded: survivors
    learn ranks over the reduced group, the result is ``degraded=True`` and
    names the skipped party — never a silent ranking that pretends everyone
    participated.
    """
    if len(values) < 2:
        raise ConfigurationError("ranking needs at least two parties")
    if any(v < 0 for v in values.values()):
        raise ConfigurationError("ranking takes non-negative integers")
    bound = value_bound if value_bound is not None else max(values.values())
    blinding = MonotoneBlinding.agree(ctx, group_label, bound)
    net = net or SimNetwork(tracer=ctx.tracer)

    with protocol_span(
        ctx,
        net,
        "smc.ranking",
        {"parties": len(values), "rank_only_noise": rank_only_noise},
    ):
        def build(alive: list[str], avoid: frozenset) -> dict[str, RankingParty]:
            ttp_node_id = standby_id(ttp_id, avoid)
            ttp = RankingTtp(ttp_node_id, ctx, expected=len(alive))
            net.register(ttp_node_id, ttp.handle)
            return {
                pid: RankingParty(
                    pid, values[pid], ctx, blinding, ttp_node_id, rank_only_noise
                )
                for pid in alive
            }

        return run_supervised(
            ctx, net, PROTOCOL, sorted(values), build, lambda party: party.verdict,
            rounds=2, min_parties=2, deadline=deadline,
        )


# benchmarks/e2e/layers.py pins this name; ROADMAP item 1(b) deletes it.
def secure_ranking_async(*args, **kwargs): return secure_ranking(*args, **kwargs)

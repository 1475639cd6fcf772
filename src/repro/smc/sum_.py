"""Secure sum Σₛ and weighted sum (paper §3.5, ref [7]).

``n`` nodes with local values ``a_0 .. a_{n-1}`` compute ``Σ a_i`` without
revealing any ``a_i``.  Exactly the paper's construction: each node ``P_i``
picks a random degree-(k-1) polynomial ``f_i`` with ``f_i(0) = a_i`` over a
public prime field ``Z_p`` (``p >> Σ a_i``) and predetermined evaluation
points ``x_0 .. x_{n-1}``, and sends the share ``s_ij = f_i(x_j)`` to node
``P_j``.  Every node sums its received shares to hold one share of
``F(z) = Σ f_i(z)``, whose free coefficient is the answer; any ``k`` nodes'
F-shares reconstruct it.

The weighted variant computes ``Σ α_i a_i`` for public constants ``α_i``:
each node scales its *F-share contribution* — precisely, ``P_j`` computes
``Σ_i α_i s_ij`` — and reconstruction proceeds identically.

Leakage: the result itself reveals the sum (by design, to observers only);
share traffic reveals nothing (Shamir is information-theoretically hiding
below k shares).  The field modulus bounds the sum, so parties learn the
*a-priori range*, recorded as secondary leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.shamir import ShamirScheme
from repro.errors import ConfigurationError, ProtocolAbortError
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline
from repro.smc.base import SmcContext, SmcResult, protocol_span, run_supervised

__all__ = [
    "SumParty",
    "secure_sum",
    "secure_weighted_sum",
]

PROTOCOL = "secure_sum"


@dataclass
class _SumState:
    received_shares: dict[str, int] = field(default_factory=dict)
    f_shares: dict[int, int] = field(default_factory=dict)  # x_j -> F(x_j)
    result: int | None = None


class SumParty:
    """One node in the secure-sum protocol.

    ``index`` is the node's 1-based position; its Shamir evaluation point is
    ``xs[index-1]``.
    """

    def __init__(
        self,
        party_id: str,
        value: int,
        weight: int,
        ctx: SmcContext,
        parties: list[str],
        observers: list[str],
        scheme: ShamirScheme,
    ) -> None:
        if value < 0:
            raise ConfigurationError("secure sum takes non-negative integers")
        self.party_id = party_id
        self.value = value
        self.weight = weight
        self.ctx = ctx
        self.parties = sorted(parties)
        self.observers = sorted(observers)
        self.scheme = scheme
        self.index = self.parties.index(party_id)
        self._rng = ctx.party_rng(party_id)
        self.state = _SumState()

    @property
    def my_x(self) -> int:
        return self.scheme.xs[self.index]

    def start(self, transport) -> None:
        """Deal one share of our secret to every party (including ourselves)."""
        with self.ctx.node_span(self.party_id, "node.ssum.deal"):
            shares = self.scheme.share(self.value, rng=self._rng)
            for peer, share in zip(self.parties, shares):
                payload = {"y": share.y, "from": self.party_id}
                if peer == self.party_id:
                    self._accept_share(self.party_id, share.y, transport)
                else:
                    transport.send(
                        Message(src=self.party_id, dst=peer, kind="ssum.share", payload=payload)
                    )

    def handle(self, msg: Message, transport) -> None:
        if msg.kind == "ssum.share":
            self._accept_share(msg.payload["from"], msg.payload["y"], transport)
        elif msg.kind == "ssum.fshare":
            self._accept_fshare(msg.payload["x"], msg.payload["y"], transport)
        else:
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")

    def _accept_share(self, from_party: str, y: int, transport) -> None:
        if from_party in self.state.received_shares:
            raise ProtocolAbortError(f"duplicate share from {from_party}")
        self.state.received_shares[from_party] = y
        if len(self.state.received_shares) < len(self.parties):
            return
        # F(x_j) = Σ_i α_i · s_ij   (α_i = 1 for the plain sum)
        weights = {p: w for p, w in zip(self.parties, self._all_weights)}
        f_share = sum(
            weights[p] * y_i for p, y_i in self.state.received_shares.items()
        ) % self.scheme.p
        # Send our F-share to each observer; k of these reconstruct F(0).
        for obs in self.observers:
            if obs == self.party_id:
                self._accept_fshare(self.my_x, f_share, transport)
            else:
                transport.send(
                    Message(
                        src=self.party_id,
                        dst=obs,
                        kind="ssum.fshare",
                        payload={"x": self.my_x, "y": f_share},
                    )
                )

    _all_weights: list[int] = []  # injected by the driver before start()

    def _accept_fshare(self, x: int, y: int, transport) -> None:
        if self.party_id not in self.observers:
            raise ProtocolAbortError(
                f"non-observer {self.party_id} received an F-share"
            )
        self.state.f_shares[x] = y
        if len(self.state.f_shares) >= self.scheme.k and self.state.result is None:
            from repro.crypto.shamir import Share

            shares = [
                Share(x=x, y=y, p=self.scheme.p)
                for x, y in sorted(self.state.f_shares.items())
            ]
            self.state.result = self.scheme.reconstruct(shares)


def _run_sum(
    ctx: SmcContext,
    values: dict[str, int],
    weights: dict[str, int] | None,
    observers: list[str] | None,
    k: int | None,
    net: SimNetwork | None,
    field_prime: int | None,
    deadline: Deadline | None = None,
) -> SmcResult:
    if not values:
        raise ConfigurationError("secure sum needs at least one party")
    parties = sorted(values)
    observers = sorted(observers) if observers else list(parties)
    unknown = [o for o in observers if o not in parties]
    if unknown:
        raise ConfigurationError(f"observers {unknown} are not parties")
    n = len(parties)
    k = k if k is not None else n
    weights = weights or {p: 1 for p in parties}
    if set(weights) != set(parties):
        raise ConfigurationError("weights must be given for exactly the parties")

    if field_prime is None:
        from repro.crypto.primes import prime_above

        bound = sum(abs(weights[p]) * values[p] for p in parties) + n + 1
        field_prime = prime_above(max(bound, 2 * n + 3))

    net = net or SimNetwork(tracer=ctx.tracer)

    def build(alive: list[str], avoid: frozenset) -> dict[str, SumParty]:
        """Construct the party objects over the (possibly reduced) cluster."""
        scheme = ShamirScheme(
            k=min(k, len(alive)), n=len(alive), p=field_prime
        )
        obs_alive = [o for o in observers if o in alive]
        weight_list = [weights[p] % field_prime for p in alive]
        nodes = {}
        for pid in alive:
            node = SumParty(
                pid, values[pid], weights[pid], ctx, alive, obs_alive, scheme
            )
            node._all_weights = weight_list
            nodes[pid] = node
        return nodes

    with protocol_span(
        ctx,
        net,
        "smc.sum",
        {"parties": n, "k": k, "weighted": any(w != 1 for w in weights.values())},
    ):
        ctx.leakage.record(
            PROTOCOL, "*", "value_bound",
            f"field modulus {field_prime} bounds the (weighted) sum a priori",
        )
        return run_supervised(
            ctx, net, PROTOCOL, parties, build, lambda party: party.state.result,
            rounds=2, observers=observers, deadline=deadline,
        )


def secure_sum(
    ctx: SmcContext,
    values: dict[str, int],
    observers: list[str] | None = None,
    k: int | None = None,
    net: SimNetwork | None = None,
    field_prime: int | None = None,
    deadline: Deadline | None = None,
) -> SmcResult:
    """Compute ``Σ values[p]`` with per-party privacy.

    ``k`` is the reconstruction threshold (defaults to n — every node's
    F-share needed).  ``field_prime`` defaults to a prime safely above the
    maximum possible sum.  The run is supervised: on a resilient network
    unreachable parties are excluded and the (partial) sum comes back with
    ``degraded=True`` and the skipped ids listed.
    """
    return _run_sum(ctx, values, None, observers, k, net, field_prime, deadline)


def secure_weighted_sum(
    ctx: SmcContext,
    values: dict[str, int],
    weights: dict[str, int],
    observers: list[str] | None = None,
    k: int | None = None,
    net: SimNetwork | None = None,
    field_prime: int | None = None,
    deadline: Deadline | None = None,
) -> SmcResult:
    """Compute ``Σ weights[p] · values[p]`` for public weights."""
    return _run_sum(
        ctx, values, weights, observers, k, net, field_prime, deadline
    )


# benchmarks/e2e/layers.py pins this name; ROADMAP item 1(b) deletes it.
def secure_sum_async(*args, **kwargs): return secure_sum(*args, **kwargs)

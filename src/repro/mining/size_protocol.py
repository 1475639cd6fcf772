"""Secure *size* of set intersection (paper §3 pointer to ref [20]).

"A commutative cryptography system gives us the freedom to route a secret
(encrypted) message in a group for secret information processing in any
order, e.g., secure computation [of] the size of set intersection [20]."

The Clifton-Kantarcioglu-Vaidya construction for two parties:

1. each party encrypts its own set with its key and sends it over
   (shuffled — order must not leak);
2. each party encrypts the *other's* set with its key and returns it;
3. now both hold both sets doubly encrypted; commutativity makes the
   encodings comparable, so either party computes
   ``|E_ab(S_a) ∩ E_ba(S_b)|`` — the intersection *cardinality* — while
   the shuffling prevents mapping matches back to elements.

Unlike the full secure intersection (§3.1), the output is only a number:
the parties learn how much they overlap but not *where*.  This is the
primitive behind the confidential association mining in
:mod:`repro.mining.associations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.pohlig_hellman import PohligHellmanCipher
from repro.errors import ConfigurationError, ProtocolAbortError
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.smc.base import SmcContext, SmcResult

__all__ = ["SizeParty", "secure_intersection_size"]

PROTOCOL = "secure_intersection_size"


@dataclass
class _SizeState:
    own_double: list[int] | None = None   # E_other(E_self(S_self))
    peer_double: list[int] | None = None  # E_self(E_other(S_peer))
    result: int | None = None


class SizeParty:
    """One of the two parties in the intersection-size protocol."""

    def __init__(
        self,
        party_id: str,
        private_set: list,
        ctx: SmcContext,
        peer_id: str,
    ) -> None:
        if party_id == peer_id:
            raise ConfigurationError("intersection size needs two distinct parties")
        self.party_id = party_id
        self.peer_id = peer_id
        self.ctx = ctx
        self._rng = ctx.party_rng(party_id)
        self.cipher = PohligHellmanCipher.generate(ctx.prime, self._rng)
        encoded = sorted(
            set(ctx.encoder.encode_hashed_many(private_set, engine=ctx.engine))
        )
        with ctx.node_span(party_id, "node.ssize.encrypt", {"node": party_id}):
            self._own_encrypted = self.cipher.encrypt_set(encoded, engine=ctx.engine)
            ctx.count_modexp(party_id, len(self._own_encrypted))
        self._rng.shuffle(self._own_encrypted)
        self.state = _SizeState()

    def start(self, transport) -> None:
        """Phase 1: ship our singly-encrypted (shuffled) set to the peer."""
        transport.send(
            Message(
                src=self.party_id,
                dst=self.peer_id,
                kind="ssize.single",
                payload={"elements": list(self._own_encrypted)},
            )
        )

    def handle(self, msg: Message, transport) -> None:
        if msg.kind == "ssize.single":
            # Phase 2: double-encrypt the peer's set and return it.
            with transport.stats.time_stage("ssize.encrypt"):
                doubled = self.cipher.encrypt_set(
                    msg.payload["elements"], engine=self.ctx.engine
                )
            self.ctx.count_modexp(self.party_id, len(doubled))
            self._rng.shuffle(doubled)
            self.ctx.leakage.record(
                PROTOCOL, self.party_id, "set_size",
                f"peer set size |S| = {len(doubled)} observed",
            )
            # We now hold the peer's set doubly encrypted.
            self.state.peer_double = doubled
            transport.send(
                Message(
                    src=self.party_id,
                    dst=self.peer_id,
                    kind="ssize.double",
                    payload={"elements": doubled},
                )
            )
            self._maybe_finish()
        elif msg.kind == "ssize.double":
            # Our own set, now doubly encrypted by the peer.
            self.state.own_double = msg.payload["elements"]
            self._maybe_finish()
        else:
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")

    def _maybe_finish(self) -> None:
        if self.state.own_double is None or self.state.peer_double is None:
            return
        overlap = set(self.state.own_double) & set(self.state.peer_double)
        self.state.result = len(overlap)
        self.ctx.leakage.record(
            PROTOCOL, self.party_id, "result_cardinality",
            f"intersection size {len(overlap)} learned",
        )


def secure_intersection_size(
    ctx: SmcContext,
    left: tuple[str, list],
    right: tuple[str, list],
    net: SimNetwork | None = None,
) -> SmcResult:
    """Run the two-party intersection-size protocol.

    Both parties learn ``|S_left ∩ S_right|`` and nothing about which
    elements match (relay shuffling destroys position linkage).
    """
    (lid, lset), (rid, rset) = left, right
    net = net or SimNetwork()
    parties = {
        lid: SizeParty(lid, lset, ctx, rid),
        rid: SizeParty(rid, rset, ctx, lid),
    }
    for pid, party in parties.items():
        net.register(pid, party.handle)
    for party in parties.values():
        party.start(net)
    net.run()

    values = {}
    for pid, party in parties.items():
        if party.state.result is None:
            raise ProtocolAbortError(f"party {pid} never computed the size")
        values[pid] = party.state.result
    return SmcResult(
        protocol=PROTOCOL,
        observers=frozenset(parties),
        values=values,
        rounds=2,
    )

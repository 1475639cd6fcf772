"""Secure set union ∪ₛ (paper §3.4, ref [20]).

The n parties compute ``S_1 ∪ ... ∪ S_n`` such that the final output does
not reveal *which party contributed which element*.  The flow mirrors the
secure intersection: sets circulate the ring being encrypted by every key.
The collector deduplicates the fully-encrypted elements (commutativity:
equal ciphertexts <=> equal plaintexts), destroying multiplicity and
ownership, then the deduplicated list is decrypted around the ring — "by
keeping only one copy of any redundant entries ... one can recover the
plaintext of the set union by sending each of the kept (encrypted) elements
to every node for decoding."

Ownership anonymity requires relays to shuffle (otherwise block boundaries
identify the origin), so shuffling is unconditional here.  Because the
plaintext must be *recovered* (not just compared), elements are encoded
reversibly — the protocol therefore operates on non-negative integers
(< p/4), which covers the DLA use case (glsn sets, attribute codes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.pohlig_hellman import PohligHellmanCipher
from repro.errors import ConfigurationError, ProtocolAbortError
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.net.topology import next_on_ring
from repro.resilience import Deadline, pick_coordinator, ring_avoiding
from repro.smc.base import SmcContext, SmcResult, protocol_span, run_supervised
from repro.twin import sync_twin

__all__ = ["UnionParty", "secure_set_union", "secure_set_union_async"]

PROTOCOL = "secure_set_union"


@dataclass
class _UnionState:
    # Fully-encrypted blocks keyed by the hop that delivered them: each
    # block finishes its circuit at a different ring member, so a frame
    # the transport duplicated replaces its twin instead of standing in
    # for a block that never arrived.
    blocks: dict[str, list[int]] = field(default_factory=dict)
    result: list[int] | None = None


class UnionParty:
    """One participant in the secure-union ring."""

    def __init__(
        self,
        party_id: str,
        private_set: list[int],
        ctx: SmcContext,
        parties: list[str],
        observers: list[str],
        collector: str,
        ring: list[str] | None = None,
    ) -> None:
        self.party_id = party_id
        self.ctx = ctx
        self.parties = sorted(parties)
        if ring is not None and sorted(ring) != self.parties:
            raise ConfigurationError("ring must be a permutation of the parties")
        self.ring = list(ring) if ring is not None else list(self.parties)
        self.observers = sorted(observers)
        self.collector = collector
        self._rng = ctx.party_rng(party_id)
        self.cipher = PohligHellmanCipher.generate(ctx.prime, self._rng)
        self.encoded = sorted({ctx.encoder.encode_int(v) for v in private_set})
        self.state = _UnionState()

    def start(self, transport) -> None:
        with self.ctx.node_span(
            self.party_id, "node.ssu.encrypt", {"node": self.party_id}
        ):
            with self.ctx.tracer.span(
                "ssu.hop",
                {
                    "party": self.party_id,
                    "set_size": len(self.encoded),
                    "engine": self.ctx.engine.name,
                },
            ):
                with transport.stats.time_stage("ssu.encrypt"):
                    encrypted = self.cipher.encrypt_set(
                        self.encoded, engine=self.ctx.engine
                    )
            self.ctx.count_modexp(self.party_id, len(encrypted))
            self._rng.shuffle(encrypted)
            self._advance(transport, hops=1, elements=encrypted)

    def _advance(self, transport, hops: int, elements: list[int]) -> None:
        if hops >= len(self.parties):
            transport.send(
                Message(
                    src=self.party_id,
                    dst=self.collector,
                    kind="ssu.full",
                    payload={"elements": elements},
                )
            )
            return
        transport.send(
            Message(
                src=self.party_id,
                dst=next_on_ring(self.ring, self.party_id),
                kind="ssu.relay",
                payload={"hops": hops, "elements": elements},
            )
        )

    def handle(self, msg: Message, transport) -> None:
        if msg.kind == "ssu.relay":
            with self.ctx.tracer.span(
                "ssu.hop",
                {
                    "party": self.party_id,
                    "set_size": len(msg.payload["elements"]),
                    "engine": self.ctx.engine.name,
                },
            ):
                with transport.stats.time_stage("ssu.encrypt"):
                    elements = self.cipher.encrypt_set(
                        msg.payload["elements"], engine=self.ctx.engine
                    )
            self.ctx.count_modexp(self.party_id, len(elements))
            self.ctx.leakage.record(
                PROTOCOL, self.party_id, "set_size",
                f"relay sees a block of {len(elements)} elements",
            )
            self._rng.shuffle(elements)
            self._advance(transport, msg.payload["hops"] + 1, elements)
        elif msg.kind == "ssu.full":
            self._on_full(msg, transport)
        elif msg.kind == "ssu.decrypt":
            with transport.stats.time_stage("ssu.decrypt"):
                elements = self.cipher.decrypt_set(
                    msg.payload["elements"], engine=self.ctx.engine
                )
            self.ctx.count_modexp(self.party_id, len(elements))
            self._send_decrypt(transport, elements, msg.payload["remaining"])
        elif msg.kind == "ssu.result":
            self.state.result = list(msg.payload["items"])
        else:
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")

    def _on_full(self, msg: Message, transport) -> None:
        if self.party_id != self.collector:
            raise ProtocolAbortError(f"{self.party_id} is not the union collector")
        self.state.blocks[msg.src] = msg.payload["elements"]
        if len(self.state.blocks) < len(self.parties):
            return
        unique = sorted(set().union(*self.state.blocks.values()))
        self.ctx.leakage.record(
            PROTOCOL, self.party_id, "result_cardinality",
            f"collector learns |∪ S_i| = {len(unique)}",
        )
        with transport.stats.time_stage("ssu.decrypt"):
            decrypted = self.cipher.decrypt_set(unique, engine=self.ctx.engine)
        self.ctx.count_modexp(self.party_id, len(decrypted))
        # Decrypt around the ring starting after ourselves, so a re-routed
        # ring order steers the decrypt chain clear of avoided links too.
        pos = self.ring.index(self.party_id)
        remaining = [
            self.ring[(pos + i) % len(self.ring)] for i in range(1, len(self.ring))
        ]
        self._send_decrypt(transport, decrypted, remaining=remaining)

    def _send_decrypt(self, transport, elements: list[int], remaining: list[str]) -> None:
        if remaining:
            transport.send(
                Message(
                    src=self.party_id,
                    dst=remaining[0],
                    kind="ssu.decrypt",
                    payload={"elements": elements, "remaining": remaining[1:]},
                )
            )
            return
        items = sorted(self.ctx.encoder.decode_int(e) for e in elements)
        for observer in self.observers:
            if observer == self.party_id:
                self.state.result = items
            else:
                transport.send(
                    Message(
                        src=self.party_id,
                        dst=observer,
                        kind="ssu.result",
                        payload={"items": items},
                    )
                )


async def secure_set_union_async(
    ctx: SmcContext,
    sets: dict[str, list[int]],
    observers: list[str] | None = None,
    net: SimNetwork | None = None,
    collector: str | None = None,
    ring: list[str] | None = None,
    deadline: Deadline | None = None,
) -> SmcResult:
    """Run secure union over integer sets on a simulated network.

    See module docstring; interface mirrors
    :func:`repro.smc.intersection.secure_set_intersection`, including
    failover supervision (re-route or exclude on a resilient network, with
    ``degraded``/``skipped`` set on the result).

    ``secure_set_union`` is :func:`~repro.twin.sync_twin` of this coroutine
    (one body, two runners: ``docs/async.md``).
    """
    if not sets:
        raise ConfigurationError("union needs at least one party")
    parties = sorted(sets)
    observers = sorted(observers) if observers else list(parties)
    unknown = [o for o in observers if o not in parties]
    if unknown:
        raise ConfigurationError(f"observers {unknown} are not parties")
    collector = collector or observers[0]
    if collector not in parties:
        raise ConfigurationError(f"collector {collector!r} is not a party")
    if ring is not None and sorted(ring) != parties:
        raise ConfigurationError("ring must be a permutation of the parties")
    net = net or SimNetwork(tracer=ctx.tracer)

    def build(alive: list[str], avoid: frozenset) -> dict[str, UnionParty]:
        obs_alive = [o for o in observers if o in alive]
        candidates = sorted(set(obs_alive) | ({collector} & set(alive)))
        coll = pick_coordinator(candidates, avoid, default=collector)
        prefer = [p for p in (ring or alive) if p in alive]
        ring_order = ring_avoiding(alive, avoid, prefer=prefer)
        return {
            pid: UnionParty(
                pid, sets[pid], ctx, alive, obs_alive, coll, ring=ring_order
            )
            for pid in alive
        }

    with protocol_span(
        ctx,
        net,
        "smc.union",
        {
            "parties": len(parties),
            "set_sizes": {pid: len(sets[pid]) for pid in parties},
            "engine": ctx.engine.name,
        },
    ):
        return await run_supervised(
            ctx, net, PROTOCOL, parties, build, lambda party: party.state.result,
            rounds=len(parties), observers=observers, deadline=deadline,
        )


secure_set_union = sync_twin(secure_set_union_async)

"""Secure set intersection ∩ₛ (paper §3.1, Figure 4).

Each DLA node ``P_i`` holds a private set ``S_i`` and a Pohlig-Hellman key
pair over the shared prime.  The sets circulate a ring: every hop encrypts
every element with the hop's key, so after ``n`` hops each set is encrypted
by all ``n`` parties.  Commutativity makes the n-fold encryptions
comparable: two fully-encrypted elements are equal iff their plaintexts are
(eq. 6-7).  A designated *collector* (one of the authorized observers
``P_w``) intersects the encrypted sets and the result flows back to the
observers in plaintext.

Two result-recovery modes:

* ``shuffle=False`` (paper's Figure 4 flow): relays preserve element order,
  so each origin can map "position j of my set is in the intersection"
  straight back to plaintext.  Leaks position linkage to the collector.
* ``shuffle=True``: relays shuffle, killing position linkage; recovery
  instead decrypts the encrypted intersection around the ring (again
  commutativity: any decryption order works), and the final holder matches
  the decrypted hash-encodings against its own set.

Both modes leak set sizes and the intersection cardinality — *secondary*
information permitted by Definition 1 and recorded in the leakage ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.pohlig_hellman import PohligHellmanCipher
from repro.errors import ConfigurationError, ProtocolAbortError
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.resilience import Deadline, pick_coordinator, ring_avoiding
from repro.smc.base import SmcContext, SmcResult, protocol_span, run_supervised
from repro.twin import sync_twin

__all__ = [
    "IntersectionParty",
    "secure_set_intersection",
    "secure_set_intersection_async",
    "fig4_walkthrough",
]

PROTOCOL = "secure_set_intersection"


@dataclass
class _PartyState:
    """Mutable per-run state of one party."""

    encoded: list[int] = field(default_factory=list)     # hashed encodings of own set
    by_encoding: dict[int, object] = field(default_factory=dict)
    full_sets: dict[str, list[int]] = field(default_factory=dict)  # collector only
    result: list | None = None


class IntersectionParty:
    """One DLA node participating in a secure-set-intersection run.

    Transport-agnostic: the ``handle`` method has the common
    ``(Message, transport) -> None`` signature, so the same object runs on
    :class:`~repro.net.simnet.SimNetwork` or a TCP node.
    """

    def __init__(
        self,
        party_id: str,
        private_set: list,
        ctx: SmcContext,
        parties: list[str],
        observers: list[str],
        collector: str,
        shuffle: bool = False,
        ring: list[str] | None = None,
    ) -> None:
        if party_id not in parties:
            raise ConfigurationError(f"{party_id} is not among the parties")
        self.party_id = party_id
        self.ctx = ctx
        self.parties = sorted(parties)
        if ring is not None and sorted(ring) != self.parties:
            raise ConfigurationError("ring must be a permutation of the parties")
        self.ring = list(ring) if ring is not None else list(self.parties)
        self.observers = sorted(observers)
        self.collector = collector
        self.shuffle = shuffle
        self._rng = ctx.party_rng(party_id)
        self.cipher = PohligHellmanCipher.generate(ctx.prime, self._rng)
        self.state = _PartyState()
        # Deduplicate while preserving order; duplicate elements would leak
        # multiplicity and add no information to an intersection.
        seen = set()
        encodings = ctx.encoder.encode_hashed_many(private_set, engine=ctx.engine)
        for item, enc in zip(private_set, encodings):
            if enc not in seen:
                seen.add(enc)
                self.state.encoded.append(enc)
                self.state.by_encoding[enc] = item
        self.private_set = list(self.state.by_encoding.values())

    # -- protocol steps ----------------------------------------------------

    def _encrypt_own(self, transport) -> list[int]:
        with self.ctx.tracer.span(
            "ssi.hop",
            {
                "party": self.party_id,
                "origin": self.party_id,
                "set_size": len(self.state.encoded),
                "engine": self.ctx.engine.name,
            },
        ):
            with transport.stats.time_stage("ssi.encrypt"):
                encrypted = self.cipher.encrypt_set(
                    self.state.encoded, engine=self.ctx.engine
                )
        self.ctx.count_modexp(self.party_id, len(encrypted))
        return encrypted

    def start(self, transport) -> None:
        """Round 0: encrypt own set and push it onto the ring."""
        with self.ctx.node_span(
            self.party_id, "node.ssi.encrypt", {"node": self.party_id}
        ):
            encrypted = self._encrypt_own(transport)
            self._advance(transport, origin=self.party_id, hops=1, elements=encrypted)

    def _advance(self, transport, origin: str, hops: int, elements: list[int]) -> None:
        if hops >= len(self.parties):
            transport.send(
                Message(
                    src=self.party_id,
                    dst=self.collector,
                    kind="ssi.full",
                    payload={"origin": origin, "elements": elements},
                )
            )
            return
        successor = self.ring[(self.ring.index(self.party_id) + 1) % len(self.ring)]
        transport.send(
            Message(
                src=self.party_id,
                dst=successor,
                kind="ssi.relay",
                payload={"origin": origin, "hops": hops, "elements": elements},
            )
        )

    def handle(self, msg: Message, transport) -> None:
        """Dispatch one protocol message."""
        if msg.kind == "ssi.relay":
            self._on_relay(msg, transport)
        elif msg.kind == "ssi.full":
            self._on_full(msg, transport)
        elif msg.kind == "ssi.positions":
            self._on_positions(msg, transport)
        elif msg.kind == "ssi.decrypt":
            self._on_decrypt(msg, transport)
        elif msg.kind == "ssi.result":
            self.state.result = [tuple(v) if isinstance(v, list) else v
                                 for v in msg.payload["items"]]
        else:
            raise ProtocolAbortError(f"unexpected message kind {msg.kind!r}")

    def _on_relay(self, msg: Message, transport) -> None:
        """One hop's work on one in-flight set: re-encrypt (and maybe shuffle)."""
        origin = msg.payload["origin"]
        elements = msg.payload["elements"]
        with self.ctx.tracer.span(
            "ssi.hop",
            {
                "party": self.party_id,
                "origin": origin,
                "set_size": len(elements),
                "engine": self.ctx.engine.name,
            },
        ):
            with transport.stats.time_stage("ssi.encrypt"):
                elements = self.cipher.encrypt_set(elements, engine=self.ctx.engine)
        self.ctx.count_modexp(self.party_id, len(elements))
        self.ctx.leakage.record(
            PROTOCOL,
            self.party_id,
            "set_size",
            f"relay sees |S_{origin}| = {len(elements)}",
        )
        if self.shuffle:
            self._rng.shuffle(elements)
        self._advance(transport, origin, msg.payload["hops"] + 1, elements)

    # -- collector role ------------------------------------------------------

    def _on_full(self, msg: Message, transport) -> None:
        if self.party_id != self.collector:
            raise ProtocolAbortError(f"{self.party_id} received ssi.full but is not collector")
        self.state.full_sets[msg.payload["origin"]] = msg.payload["elements"]
        if len(self.state.full_sets) < len(self.parties):
            return
        common = set.intersection(
            *(set(elems) for elems in self.state.full_sets.values())
        )
        self.ctx.leakage.record(
            PROTOCOL,
            self.party_id,
            "result_cardinality",
            f"collector learns |∩ S_i| = {len(common)}",
        )
        if not self.shuffle:
            # Positions survive relaying: tell each origin which of its own
            # (order-preserved) elements made the intersection.
            self.ctx.leakage.record(
                PROTOCOL,
                self.party_id,
                "position_linkage",
                "collector links intersection hits to element positions",
            )
            transport.send_many(
                [
                    Message(
                        src=self.party_id,
                        dst=origin,
                        kind="ssi.positions",
                        payload={
                            "positions": [
                                i for i, e in enumerate(elems) if e in common
                            ]
                        },
                    )
                    for origin, elems in self.state.full_sets.items()
                ]
            )
        else:
            # Shuffled mode: decrypt the encrypted intersection around the
            # ring (any order — commutativity), starting with ourselves.
            with transport.stats.time_stage("ssi.decrypt"):
                elements = self.cipher.decrypt_set(
                    sorted(common), engine=self.ctx.engine
                )
            self.ctx.count_modexp(self.party_id, len(elements))
            self._send_decrypt(transport, elements, remaining=[
                p for p in self.parties if p != self.party_id
            ])

    def _send_decrypt(self, transport, elements: list[int], remaining: list[str]) -> None:
        if remaining:
            transport.send(
                Message(
                    src=self.party_id,
                    dst=remaining[0],
                    kind="ssi.decrypt",
                    payload={"elements": elements, "remaining": remaining[1:]},
                )
            )
            return
        # Fully decrypted: elements are hash-encodings; match against our
        # own set (the intersection is a subset of every party's set).
        items = [self.state.by_encoding[e] for e in elements if e in self.state.by_encoding]
        if len(items) != len(elements):
            raise ProtocolAbortError(
                "decrypted intersection contains encodings unknown to the holder"
            )
        self._publish(transport, items)

    def _on_decrypt(self, msg: Message, transport) -> None:
        with transport.stats.time_stage("ssi.decrypt"):
            elements = self.cipher.decrypt_set(
                msg.payload["elements"], engine=self.ctx.engine
            )
        self.ctx.count_modexp(self.party_id, len(elements))
        self._send_decrypt(transport, elements, msg.payload["remaining"])

    def _on_positions(self, msg: Message, transport) -> None:
        items = [self.private_set[i] for i in msg.payload["positions"]]
        if self.party_id == min(self.parties):
            # One designated origin publishes (all origins decode equal sets).
            self._publish(transport, items)

    def _publish(self, transport, items: list) -> None:
        items = sorted(items, key=repr)
        outgoing = []
        for observer in self.observers:
            if observer == self.party_id:
                self.state.result = items
            else:
                outgoing.append(
                    Message(
                        src=self.party_id,
                        dst=observer,
                        kind="ssi.result",
                        payload={"items": items},
                    )
                )
        if outgoing:
            transport.send_many(outgoing)


async def secure_set_intersection_async(
    ctx: SmcContext,
    sets: dict[str, list],
    observers: list[str] | None = None,
    net: SimNetwork | None = None,
    shuffle: bool = False,
    collector: str | None = None,
    ring: list[str] | None = None,
    deadline: Deadline | None = None,
) -> SmcResult:
    """Run the full protocol on a simulated network and return the result.

    This coroutine is the protocol's only body.  Awaited on an event loop
    over a :class:`~repro.sched.Channel` its rounds interleave
    with other tasks'; ``secure_set_intersection`` is
    :func:`~repro.twin.sync_twin` of it — the same body run to completion
    over a private :class:`SimNetwork` (see ``docs/async.md``).

    Parameters
    ----------
    ctx:
        Shared :class:`SmcContext` (prime, RNG, ledgers).
    sets:
        ``party_id -> private set`` (lists of str/int/bytes/tuples).
    observers:
        Party ids authorized to learn the intersection; defaults to all.
    net:
        An existing transport to run on (stats accumulate there): a
        :class:`SimNetwork` under either name, a scheduler ``Channel``
        under the awaited name only.  A fresh private
        :class:`SimNetwork` is created if omitted.
    shuffle:
        Enable relay shuffling (see module docstring).
    collector:
        The observer that aggregates the encrypted sets; defaults to the
        smallest observer id.
    ring:
        Optional explicit relay order (a permutation of the parties);
        defaults to sorted party ids.  Latency-aware orders (see
        :func:`repro.net.topology.latency_ring`) cut wall-clock time on
        heterogeneous links without changing the protocol.
    deadline:
        Optional wall-clock :class:`~repro.resilience.Deadline` bounding
        the run (propagated from the audit service).

    The run is supervised (:func:`~repro.smc.base.run_supervised`): on a
    resilient network (``SimNetwork(resilience=RetryPolicy(...))``) a dead
    or partitioned hop is re-routed around (new ring order / new
    collector), or the node is excluded and the result returned with
    ``degraded=True`` and its id in ``skipped``; on a plain network a
    stranded round is a typed :class:`~repro.errors.RingFailoverError`.
    """
    if len(sets) < 1:
        raise ConfigurationError("intersection needs at least one party")
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

    def build(alive: list[str], avoid: frozenset) -> dict[str, IntersectionParty]:
        obs_alive = [o for o in observers if o in alive]
        candidates = sorted(set(obs_alive) | ({collector} & set(alive)))
        coll = pick_coordinator(candidates, avoid, default=collector)
        prefer = [p for p in (ring or alive) if p in alive]
        ring_order = ring_avoiding(alive, avoid, prefer=prefer)
        return {
            pid: IntersectionParty(
                pid, sets[pid], ctx, alive, obs_alive, coll,
                shuffle=shuffle, ring=ring_order,
            )
            for pid in alive
        }

    with protocol_span(
        ctx,
        net,
        "smc.intersection",
        {
            "parties": len(parties),
            "set_sizes": {pid: len(sets[pid]) for pid in parties},
            "engine": ctx.engine.name,
            "shuffle": shuffle,
        },
    ):
        return await run_supervised(
            ctx, net, PROTOCOL, parties, build, lambda party: party.state.result,
            rounds=len(parties), observers=observers, deadline=deadline,
        )


secure_set_intersection = sync_twin(secure_set_intersection_async)


def fig4_walkthrough(ctx: SmcContext | None = None) -> dict:
    """Reproduce the paper's Figure 4 example end to end.

    Three parties with S1={c,d,e}, S2={d,e,f}, S3={e,f,g}; the protocol
    must output {e}, and the three independently-ordered triple encryptions
    of 'e' must coincide: E132(e) = E321(e) = E213(e).

    Returns a transcript dict used by the example script, the test suite
    and EXPERIMENTS.md.
    """
    from repro.crypto.pohlig_hellman import shared_prime
    from repro.crypto.rng import DeterministicRng

    ctx = ctx or SmcContext(shared_prime(128), DeterministicRng(b"fig4"))
    sets = {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]}

    # Direct algebraic check of eq. 6 on the element 'e'.
    rng = ctx.rng.spawn("fig4-alg")
    k1 = PohligHellmanCipher.generate(ctx.prime, rng)
    k2 = PohligHellmanCipher.generate(ctx.prime, rng)
    k3 = PohligHellmanCipher.generate(ctx.prime, rng)
    e_enc = ctx.encoder.encode_hashed("e")
    e_132 = k1.encrypt(k3.encrypt(k2.encrypt(e_enc)))
    e_321 = k3.encrypt(k2.encrypt(k1.encrypt(e_enc)))
    e_213 = k2.encrypt(k1.encrypt(k3.encrypt(e_enc)))

    net = SimNetwork()
    result = secure_set_intersection(ctx, sets, net=net)
    return {
        "sets": sets,
        "intersection": result.any_value,
        "commutative_encodings_equal": e_132 == e_321 == e_213,
        "triple_encryption_of_e": e_132,
        "messages": net.stats.messages,
        "bytes": net.stats.bytes,
        "modexp": ctx.crypto_ops.modexp,
    }

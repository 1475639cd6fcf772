"""Shared context and result types for the relaxed-SMC protocols.

Every protocol run happens inside an :class:`SmcContext` that fixes the
cluster-wide crypto parameters (the commutative-cipher prime, the secret-
sharing field), the RNG, and the three ledgers a run reports into: network
stats (owned by the transport), crypto-op counts, and the leakage ledger.

Definition 1 (paper §3) distinguishes *participants* (hold private inputs),
*observers* (authorized to learn the result ``w``) and an optional blind
*TTP coordinator*.  :class:`SmcResult` captures who got what.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.crypto.pohlig_hellman import MessageEncoder
from repro.crypto.rng import DeterministicRng, system_rng
from repro.errors import (
    ConfigurationError,
    RingFailoverError,
    UnauthorizedObserverError,
)
from repro.net.stats import CryptoOpCounter
from repro.obs.tracer import NOOP_TRACER
from repro.perf.engine import resolve_engine
from repro.resilience import Deadline, supervise_ring
from repro.smc.leakage import LeakageLedger

__all__ = ["SmcContext", "SmcResult", "protocol_span", "run_supervised"]


@contextmanager
def protocol_span(ctx: "SmcContext", net, name: str, attributes: dict | None = None):
    """Span wrapping one protocol run, with cost deltas as attributes.

    Snapshots the transport's message/byte counters and the context's
    modexp total on entry, and writes the deltas (``messages``, ``bytes``,
    ``modexp``) onto the span on exit — so each protocol span carries
    exactly the cost it caused, even when several runs share one network.
    """
    tracer = ctx.tracer
    if not tracer.enabled:
        with tracer.span(name) as span:
            yield span
        return
    start_msgs = net.stats.messages
    start_bytes = net.stats.bytes
    start_modexp = ctx.crypto_ops.modexp
    with tracer.span(name, attributes) as span:
        try:
            yield span
        finally:
            span.set_attributes(
                {
                    "messages": net.stats.messages - start_msgs,
                    "bytes": net.stats.bytes - start_bytes,
                    "modexp": ctx.crypto_ops.modexp - start_modexp,
                }
            )


def run_supervised(
    ctx: "SmcContext",
    net,
    protocol: str,
    parties: list[str],
    build: Callable[[list[str], frozenset], dict],
    result_of: Callable[[Any], Any],
    *,
    rounds: int,
    observers: list[str] | None = None,
    essential: tuple[str, ...] = (),
    min_parties: int = 1,
    deadline: Deadline | None = None,
) -> "SmcResult":
    """Launch one protocol round through the failover supervisor.

    The only way an SMC driver runs, on any transport.
    ``build(alive, avoid)`` constructs the party objects for one launch
    (steering ring order, collector or TTP id around the ``avoid`` links);
    each is registered under its id and started.  Once the transport
    drains, ``result_of(party)`` is read at every observer still alive
    (every party when ``observers`` is ``None``); ``None`` anywhere means
    the round is incomplete and :func:`~repro.resilience.supervise_ring`
    decides between re-route, exclusion and a typed
    :class:`~repro.errors.RingFailoverError`.
    """

    def launch(alive: list[str], avoid: frozenset):
        watched = alive if observers is None else [o for o in observers if o in alive]
        if not watched:
            raise RingFailoverError(
                f"{protocol}: every authorized observer is unreachable"
            )
        nodes = build(alive, avoid)
        for pid, node in nodes.items():
            net.register(pid, node.handle)
        for node in nodes.values():
            node.start(net)

        def collect():
            values = {pid: result_of(nodes[pid]) for pid in watched}
            return None if None in values.values() else values

        return collect

    outcome = supervise_ring(
        net, protocol, parties, launch,
        essential=essential, min_parties=min_parties,
        deadline=deadline, ledger=ctx.leakage,
    )
    return SmcResult(
        protocol=protocol,
        observers=frozenset(outcome.values),
        values=outcome.values,
        rounds=rounds,
        degraded=outcome.degraded,
        skipped=outcome.skipped,
        failovers=outcome.failovers,
    )


class SmcContext:
    """Cluster-wide parameters and ledgers for SMC protocol runs.

    Parameters
    ----------
    prime:
        Shared Pohlig-Hellman modulus (a safe prime all parties agree on).
    rng:
        Root RNG; each party derives a child stream via ``rng.spawn`` so
        runs are reproducible yet parties' randomness is independent.
    engine:
        Bulk-exponentiation engine for the protocols' crypto hot path —
        an :class:`~repro.perf.engine.ExponentiationEngine`, a spec string
        (``"serial"`` / ``"process"`` / ``"auto"``), or ``None`` for the
        process default (the ``REPRO_PERF_ENGINE`` environment variable,
        falling back to ``auto``).  Engines never change results, only
        how the ``pow`` calls are scheduled.
    tracer:
        An :class:`~repro.obs.tracer.Tracer` all protocol runs emit spans
        into, each party's modexps landing on that party's innermost open
        span; ``None`` (the default) installs the no-op tracer, which
        records nothing.  Tracing never changes protocol behaviour:
        payloads, message counts and modexp totals are identical with any
        tracer (a traced transport adds only the trace-context envelope
        keys).
    """

    def __init__(
        self,
        prime: int,
        rng: DeterministicRng | None = None,
        engine=None,
        tracer=None,
    ) -> None:
        if prime < 17:
            raise ConfigurationError("shared prime too small")
        self.prime = prime
        self.rng = rng or system_rng()
        self.encoder = MessageEncoder(prime)
        self.engine = resolve_engine(engine)
        self.tracer = tracer or NOOP_TRACER
        self.crypto_ops = CryptoOpCounter()
        self.leakage = LeakageLedger(tracer=self.tracer)

    def party_rng(self, party_id: str) -> DeterministicRng:
        """Independent randomness stream for one party."""
        return self.rng.spawn(f"party:{party_id}")

    def count_modexp(self, party_id: str, count: int = 1) -> None:
        """Record ``count`` modular exponentiations performed by a party."""
        self.crypto_ops.add(f"{party_id}.modexp", count)
        self.crypto_ops.add("total.modexp", count)
        self.crypto_ops.batch_sizes.observe(count)
        if self.tracer.enabled:
            self.tracer.add_cost(party_id, "modexp", count)

    def node_span(self, party_id: str, name: str):
        """Context manager: a span recorded at ``party_id``.

        Protocol ``start()`` methods run on the coordinator thread before
        any message is delivered, so their per-party work (encrypting own
        sets, dealing shares, blinding values) has no handler span to land
        in — this opens one explicitly.
        """
        return self.tracer.span(name, {"node": party_id})


@dataclass
class SmcResult:
    """Outcome of one relaxed-SMC run.

    ``values`` maps each authorized observer to the result it learned.
    Reading the result as an unauthorized party raises — mirroring the
    protocol property that only selected observers receive ``w``.

    ``degraded`` is ``True`` when ring failover completed the run without
    some participants; ``skipped`` names them.  A degraded answer is
    *explicitly* partial — callers must treat the result as computed over
    the surviving inputs only (the leakage ledger records the same fact).
    ``failovers`` counts relaunches the supervisor needed.
    """

    protocol: str
    observers: frozenset[str]
    values: dict[str, Any] = field(default_factory=dict)
    rounds: int = 0
    degraded: bool = False
    skipped: tuple[str, ...] = ()
    failovers: int = 0

    def value_for(self, observer: str) -> Any:
        if observer not in self.observers:
            raise UnauthorizedObserverError(
                f"{observer!r} is not an authorized observer of {self.protocol}"
            )
        return self.values[observer]

    @property
    def any_value(self) -> Any:
        """The result as seen by an arbitrary authorized observer.

        All observers of a correct run hold equal values; tests assert it.
        """
        if not self.values:
            raise UnauthorizedObserverError(f"{self.protocol}: no observer values")
        return next(iter(self.values.values()))

"""Ring failover: supervised protocol launches that survive dead hops.

The SMC ring protocols and the §4.1 integrity ring are *single-shot*
message cascades: one unreachable hop strands the round.  With the
reliability layer active (:class:`~repro.net.simnet.SimNetwork` built
with a :class:`~repro.resilience.RetryPolicy`), probabilistic loss is
repaired by retransmission — what remains are *persistent* failures
(partitions, crashed nodes), which surface as exhausted links in
``net.failed_links``.

:func:`supervise_ring` is the one loop every driver launches through,
on any transport, and turns those diagnostics into recovery.  Each
protocol driver hands it a ``launch(alive, avoid)`` callback that
(re)builds the party objects and starts the round; the supervisor then:

1. runs the round and collects results;
2. on a stranded round, diagnoses the failed links;
3. first tries a **re-route** — relaunching with the same participants
   but telling the driver to avoid the failed links (pick a different
   ring order, a different collector, a standby TTP).  A re-routed round
   that completes is *not* degraded: every input is still in the result;
4. if the same links fail again (or a node is unreachable from several
   peers), **excludes** the offending node and relaunches with the
   survivors.  The outcome is then explicitly ``degraded`` and names the
   skipped nodes;
5. gives up with a typed, attributed :class:`RingFailoverError` when no
   excludable node remains, the party floor is reached, or the failover
   budget is spent.  Never a hang, never a silent wrong answer.

A transport without the reliability layer never records a failed link,
so there a stranded round has nothing to diagnose: step 5 is reached
after exactly one launch, with the same typed error and no relaunch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import RingFailoverError
from repro.resilience.policy import Deadline
from repro.twin import sync_twin

__all__ = [
    "FailoverOutcome",
    "supervise_ring",
    "supervise_ring_async",
    "ring_avoiding",
    "pick_coordinator",
    "standby_id",
]

#: ``launch(alive, avoid) -> collect``: build the protocol over the alive
#: parties, steering around the ``avoid`` links; the returned ``collect``
#: yields observer values, or ``None`` while the round is incomplete.
Launch = Callable[[list[str], frozenset], Callable[[], dict | None]]


@dataclass(frozen=True)
class FailoverOutcome:
    """Result of a supervised protocol run."""

    values: dict
    degraded: bool
    skipped: tuple[str, ...]
    failovers: int


def ring_avoiding(
    parties: Iterable[str], avoid: frozenset | set, prefer: list[str] | None = None
) -> list[str]:
    """A ring order over ``parties`` avoiding the directed ``avoid`` edges.

    Successor edges (including the wrap-around) must not be in ``avoid``.
    Solved by backtracking — rings are small (a DLA cluster, not a WAN);
    falls back to the preferred/sorted order when no conforming cycle
    exists (the supervisor will then escalate to exclusion).
    """
    base = list(prefer) if prefer is not None else sorted(parties)
    if len(base) <= 1 or not avoid:
        return base
    forbidden = set(avoid)

    def extend(order: list[str], remaining: list[str]) -> list[str] | None:
        if not remaining:
            if (order[-1], order[0]) in forbidden:
                return None
            return order
        for i, candidate in enumerate(remaining):
            if (order[-1], candidate) in forbidden:
                continue
            found = extend(order + [candidate], remaining[:i] + remaining[i + 1 :])
            if found is not None:
                return found
        return None

    solution = extend(base[:1], base[1:])
    return solution if solution is not None else base


def pick_coordinator(
    candidates: list[str], avoid: frozenset | set, default: str | None = None
) -> str:
    """Choose a hub node (collector/TTP host) minimizing avoided links.

    Every party talks to the hub directly, so a candidate incident to any
    avoided link is suspect; the default (or smallest id) wins ties.
    """
    if not candidates:
        raise RingFailoverError("no coordinator candidate remains")

    def incident(node: str) -> int:
        return sum(1 for link in avoid if node in link)

    ordered = sorted(
        candidates, key=lambda n: (incident(n), n != default, n)
    )
    return ordered[0]


def standby_id(base: str, avoid: frozenset | set) -> str:
    """The coordinator id to use this launch, advancing past burned ones.

    TTP-style coordinators hold no private input, so a dead one is not
    *excluded* but *replaced*: ``"ttp"`` fails over to ``"ttp~1"``,
    ``"ttp~2"``, ... — the first id not incident to any avoided link.
    """
    candidate = base
    k = 0
    while any(candidate in link for link in avoid):
        k += 1
        candidate = f"{base}~{k}"
    return candidate


def _diagnose_dead(
    failed: set[tuple[str, str]],
    retried: set[tuple[str, str]],
    excludable: set[str],
) -> set[str]:
    """Nodes to exclude, given this round's failed links.

    ``excludable`` is the set of launched, non-essential participants —
    coordinator nodes (TTP, an out-of-band collector) are never excluded
    here; the driver replaces those itself during a re-route.  A node with
    failed links to/from two or more distinct peers is treated as dead or
    fully partitioned and excluded outright.  A *pairwise* partition (one
    bad link that re-routing did not cure) excludes a single endpoint,
    smallest id first — inputs are shed one at a time, not wholesale.
    """
    peers: dict[str, set[str]] = {}
    for src, dst in failed:
        peers.setdefault(dst, set()).add(src)
        peers.setdefault(src, set()).add(dst)
    dead = {n for n, ps in peers.items() if len(ps) >= 2 and n in excludable}
    if dead:
        return dead
    source = retried or failed
    candidates = sorted(
        {n for link in source for n in link if n in excludable}
    )
    return {candidates[0]} if candidates else set()


async def supervise_ring_async(
    net,
    protocol: str,
    parties: list[str],
    launch: Launch,
    *,
    essential: Iterable[str] = (),
    min_parties: int = 1,
    deadline: Deadline | None = None,
    max_failovers: int | None = None,
    ledger=None,
) -> FailoverOutcome:
    """Run ``launch`` under failover supervision on ``net``.

    See the module docstring for the recovery ladder.  Raises
    :class:`RingFailoverError` (typed, attributed) when recovery is
    impossible, and :class:`~repro.errors.DeadlineExceededError` when the
    propagated deadline expires first.

    ``supervise_ring`` is :func:`~repro.twin.sync_twin` of this coroutine
    (one body, two runners: ``docs/async.md``).
    """
    essential = set(essential)
    alive = list(parties)
    skipped: list[str] = []
    avoid: set[tuple[str, str]] = set()
    failovers = 0
    budget = max_failovers if max_failovers is not None else len(parties) + 3
    deadline = deadline or Deadline.never()

    while True:
        deadline.check(f"{protocol}.launch")
        net.reset_failures()
        collect = launch(list(alive), frozenset(avoid))
        await net.drain(deadline=deadline)
        values = collect()
        if values is not None:
            if skipped and ledger is not None:
                ledger.record(
                    protocol,
                    "*",
                    "degraded_result",
                    f"result computed without {sorted(skipped)} "
                    f"after {failovers} failover(s)",
                )
            return FailoverOutcome(
                values=values,
                degraded=bool(skipped),
                skipped=tuple(sorted(skipped)),
                failovers=failovers,
            )

        failed = set(net.failed_links)
        if not failed:
            raise RingFailoverError(
                f"{protocol}: round incomplete with no diagnosable link failure "
                f"(skipped={sorted(skipped)})",
                skipped=tuple(skipped),
            )
        if failovers >= budget:
            raise RingFailoverError(
                f"{protocol}: failover budget ({budget}) exhausted; "
                f"last failed links {sorted(failed)}",
                skipped=tuple(skipped),
                failed_links=tuple(sorted(failed)),
            )
        failovers += 1
        net._count(
            "failovers",
            "resilience.failover",
            {"protocol": protocol, "failed_links": sorted(map(list, failed))},
        )

        excludable = set(alive) - essential
        retried = failed & avoid
        fresh = failed - avoid
        # Diagnose over the accumulated history, not just this round: a
        # crashed party whose only link is to the coordinator produces one
        # fresh link per standby swap — only the union of launches reveals
        # it failing toward several distinct peers.
        history = failed | avoid
        avoid |= failed
        if not retried and fresh and not _must_exclude(history, excludable):
            # First sighting of these links: try re-routing before
            # shedding anyone's input.
            continue
        exclude = _diagnose_dead(history, retried, excludable)
        if not exclude:
            raise RingFailoverError(
                f"{protocol}: only essential node(s) remain on failed links "
                f"{sorted(failed)}",
                skipped=tuple(skipped),
                failed_links=tuple(sorted(failed)),
            )
        alive = [p for p in alive if p not in exclude]
        skipped.extend(sorted(exclude))
        # Forget history about the excluded nodes (their links are moot),
        # but keep coordinator-side history so standby choices persist.
        avoid = {link for link in avoid if not (set(link) & exclude)}
        if len(alive) < min_parties:
            raise RingFailoverError(
                f"{protocol}: fewer than {min_parties} parties remain after "
                f"excluding {sorted(skipped)}",
                skipped=tuple(skipped),
            )


supervise_ring = sync_twin(supervise_ring_async)


def _must_exclude(failed: set[tuple[str, str]], excludable: set[str]) -> bool:
    """True when failures already look like a dead excludable node."""
    peers: dict[str, set[str]] = {}
    for src, dst in failed:
        peers.setdefault(dst, set()).add(src)
        peers.setdefault(src, set()).add(dst)
    return any(
        len(ps) >= 2 and n in excludable for n, ps in peers.items()
    )

"""Ring orders for the SMC protocols.

The commutative-cipher protocols route sets around a *ring* of DLA nodes:
the canonical ring is the sorted node ids, and a latency-aware order
(greedy TSP over measured links) is the ablation the ring benchmark runs.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.net.message import NodeId

__all__ = ["next_on_ring", "latency_ring"]


def next_on_ring(nodes: list[NodeId], current: NodeId) -> NodeId:
    """Successor of ``current`` on the canonical ring."""
    ordered = sorted(nodes)
    try:
        idx = ordered.index(current)
    except ValueError as exc:
        raise ConfigurationError(f"{current!r} is not on the ring") from exc
    return ordered[(idx + 1) % len(ordered)]


def latency_ring(latencies: dict[tuple[NodeId, NodeId], float]) -> list[NodeId]:
    """Approximate minimum-latency ring (greedy TSP) over measured links.

    ``latencies`` maps directed pairs to link latency; missing pairs get the
    symmetric value or a large penalty.  Used by the ablation bench that
    compares canonical vs latency-aware ring orders.
    """
    nodes = sorted({a for a, _ in latencies} | {b for _, b in latencies})
    if not nodes:
        raise ConfigurationError("no nodes in latency map")

    def cost(a: NodeId, b: NodeId) -> float:
        if (a, b) in latencies:
            return latencies[(a, b)]
        if (b, a) in latencies:
            return latencies[(b, a)]
        return 1e9

    order = [nodes[0]]
    remaining = set(nodes[1:])
    while remaining:
        here = order[-1]
        nearest = min(remaining, key=lambda n: cost(here, n))
        order.append(nearest)
        remaining.discard(nearest)
    return order

"""Seeded event rows with fixed marginals.

The seed decides *which* records match a criterion, never *how many*: each
column is a fixed multiset dealt out in a seeded order.  Protocol cost in
this system is a function of set sizes, so two seeds give different glsn
sets (the oracle has something to check) but the same amount of work, and
run-to-run spread measures the machine, not the dice.

Marginals, for ``n`` rows:

* ``C2``  — ``i * 1000 // n``: evenly spread over 0..999, so ``C2 < k``
  selects exactly ``ceil(k * n / 1000)`` rows;
* ``C1``/``C5`` in 0..99 — exactly ``n // 2`` rows have ``C1 > C5``;
* ``C4``/``C`` in 0..2 — exactly ``ceil(n / 3)`` rows have ``C4 = C``;
* ``C3``  — six labels round-robin; ``protocl`` — tcp/udp alternating.
"""

from __future__ import annotations

import random

LABELS = ("bank", "salary", "shop", "tax", "fee", "loan")
PROTOCOLS = ("tcp", "udp")


def _dealt(values: list, rng: random.Random) -> list:
    rng.shuffle(values)
    return values


def make_rows(n: int, rng: random.Random, start: int = 0) -> list[dict]:
    """``n`` rows; ``start`` offsets the unique identifiers (EID, Tid)."""
    c2 = _dealt([i * 1000 // n for i in range(n)], rng)
    c3 = _dealt([LABELS[i % len(LABELS)] for i in range(n)], rng)
    protocol = _dealt([PROTOCOLS[i % 2] for i in range(n)], rng)
    ordered = []
    for i in range(n):
        low, high = sorted(rng.sample(range(100), 2))
        ordered.append((high, low) if i < n // 2 else (low, high))
    equal = []
    for i in range(n):
        value = rng.randrange(3)
        other = value if i % 3 == 0 else (value + 1 + rng.randrange(2)) % 3
        equal.append((value, other))
    _dealt(ordered, rng)
    _dealt(equal, rng)
    rows = []
    for i in range(n):
        ident = start + i
        rows.append(
            {
                "Time": f"2004-{ident % 12 + 1:02d}-{ident % 28 + 1:02d}",
                "id": f"u{ident % 5}",
                "protocl": protocol[i],
                "Tid": f"t{ident}",
                "C1": ordered[i][0],
                "C2": c2[i],
                "C3": c3[i],
                "C4": equal[i][0],
                "EID": ident,
                "C5": ordered[i][1],
                "C": equal[i][1],
                "ip": f"10.0.{ident % 7}.{rng.randrange(250)}",
            }
        )
    return rows


def c2_cut(n: int, fraction: float, rng: random.Random) -> int:
    """A threshold ``k`` such that ``C2 < k`` selects ``round(fraction * n)``
    of :func:`make_rows`' ``n`` rows, drawn from all thresholds that do."""
    values = [i * 1000 // n for i in range(n)]
    target = max(1, round(fraction * n))
    while target < n and values[target] == values[target - 1]:
        target += 1
    upper = values[target] if target < n else 1000
    return rng.randint(values[target - 1] + 1, upper)

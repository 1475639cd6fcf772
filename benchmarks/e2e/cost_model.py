"""Predicted modexps and messages per protocol, from set sizes and party count.

A closed-form model of what the shipped protocols *must* spend, so the traced
run can print measured next to predicted and flag a gap (a mismatch is a
finding about the code or the model, not a test failure).  Formulas:

* ``intersection`` (pipelined ring, positions recovery, every party an
  observer): every set is encrypted once by every party, so
  ``n * sum(|S_i|)`` modexps; ``n(n-1)`` relays + ``n`` deliveries to the
  collector + ``n`` position replies + ``n-1`` result copies.
* ``compare_batch`` (blind TTP, monotone blinding): no modexps; each of the
  two parties sends one blinded vector and receives one verdict vector.
* ``agreement`` (majority agreement before a report is signed): every node
  sends its digest to every other node; no counted modexps.
* ``integrity_sweep`` (batched ring): one fold per glsn per node; one
  message per hop.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Cost:
    modexp: int = 0
    messages: int = 0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.modexp + other.modexp, self.messages + other.messages)


def intersection(sizes: list[int]) -> Cost:
    n = len(sizes)
    return Cost(modexp=n * sum(sizes), messages=n * (n - 1) + n + n + (n - 1))


def compare_batch() -> Cost:
    return Cost(modexp=0, messages=4)


def cross_order(rows: int) -> Cost:
    """``A > B`` across two nodes: presence intersection, then batched compare."""
    return intersection([rows, rows]) + compare_batch()


def cross_equality(rows: int) -> Cost:
    """``A = B`` across two nodes: one intersection of ``glsn|value`` composites."""
    return intersection([rows, rows])


def conjunction(clause_sizes: list[int]) -> Cost:
    """Final glsn intersection of clause sets anchored at distinct nodes."""
    if len(clause_sizes) < 2 or not all(clause_sizes):
        return Cost()
    return intersection(clause_sizes)


def agreement(nodes: int) -> Cost:
    return Cost(modexp=0, messages=nodes * (nodes - 1))


def integrity_sweep(nodes: int, glsns: int) -> Cost:
    return Cost(modexp=nodes * glsns, messages=nodes)

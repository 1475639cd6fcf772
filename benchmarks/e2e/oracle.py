"""Plaintext referee for the benchmark.

The service only ever sees criterion *text* and generated rows; the oracle
keeps the same rows in the clear and evaluates the same criteria with plain
Python, so every glsn set and aggregate the cluster returns can be compared
against an independent answer.

A criterion is either one predicate ``(left, op, right)`` or a flat
``("and" | "or", [predicate, ...])``; ``right`` is a constant, or an
:class:`Attr` naming a second attribute of the same record.
"""

from __future__ import annotations

import operator

_OPS = {
    "<": operator.lt,
    ">": operator.gt,
    "=": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
}


class Attr(str):
    """A right-hand side that names an attribute instead of a constant."""


def render(criterion) -> str:
    """The criterion as the text handed to the service."""
    if criterion[0] in ("and", "or"):
        return f" {criterion[0]} ".join(render(part) for part in criterion[1])
    left, op, right = criterion
    if not isinstance(right, Attr) and isinstance(right, str):
        right = f"'{right}'"
    return f"{left} {op} {right}"


def holds(criterion, row: dict) -> bool:
    if criterion[0] == "and":
        return all(holds(part, row) for part in criterion[1])
    if criterion[0] == "or":
        return any(holds(part, row) for part in criterion[1])
    left, op, right = criterion
    return _OPS[op](row[left], row[right] if isinstance(right, Attr) else right)


class Oracle:
    """The log in the clear: ``glsn -> row``."""

    def __init__(self) -> None:
        self.rows: dict[int, dict] = {}

    def matching(self, criterion) -> list[int]:
        return sorted(g for g, row in self.rows.items() if holds(criterion, row))

    def aggregate(self, op: str, attribute: str, criterion=None):
        values = [
            row[attribute]
            for row in self.rows.values()
            if criterion is None or holds(criterion, row)
        ]
        if op == "count":
            return len(values)
        if op == "sum":
            return sum(values)
        return {"max": max, "min": min}[op](values) if values else None

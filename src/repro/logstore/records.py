"""Log records and table rendering (paper eq. 5, Table 1).

A log record is ``Log = {glsn, L = (l_0 ... l_m)}`` — a unique global log
sequence number plus attribute values drawn from the global schema.  Values
may be sparse: a record carries only the attributes its event produced.

:func:`render_table` reproduces the paper's table presentation (used to
regenerate Tables 1-5 in the examples and EXPERIMENTS.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.logstore.schema import GlobalSchema

__all__ = ["LogRecord", "format_glsn", "render_table"]

# One encoder for every canonical serialization: ``json.dumps`` with
# these options would build a new one per call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def format_glsn(glsn: int) -> str:
    """Render a glsn the way the paper prints them (lowercase hex)."""
    return format(glsn, "x")


@dataclass(frozen=True)
class LogRecord:
    """One immutable global log record.

    Attributes
    ----------
    glsn:
        Unique, monotonically increasing integer assigned by the DLA
        cluster (rendered in hex when displayed).
    values:
        Attribute name -> value.  Only attributes present in the event.
    """

    glsn: int
    values: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.glsn < 0:
            raise SchemaError("glsn must be non-negative")

    def get(self, attribute: str, default=None):
        return self.values.get(attribute, default)

    def project(self, attributes: list[str]) -> dict:
        """The record restricted to ``attributes`` (missing ones omitted)."""
        return {a: self.values[a] for a in attributes if a in self.values}

    def canonical_bytes(self) -> bytes:
        """Stable byte serialization (input to integrity accumulators)."""
        body = {"glsn": self.glsn, "values": _stringify(self.values)}
        return _CANONICAL_JSON.encode(body).encode()

    def validate_against(self, schema: GlobalSchema) -> None:
        schema.validate_values(self.values)


def _stringify(values: dict) -> dict:
    """JSON-safe rendering of attribute values for canonical encoding."""
    out = {}
    for key, value in sorted(values.items()):
        if isinstance(value, bytes):
            out[key] = {"__bytes__": value.hex()}
        else:
            out[key] = value
    return out


def render_table(
    records: list[LogRecord],
    columns: list[str],
    include_glsn: bool = True,
    missing: str = "",
) -> str:
    """Render records as an aligned ASCII table, paper style.

    ``columns`` chooses and orders the attribute columns; glsn leads by
    default.  Missing attribute values render as ``missing``.
    """
    headers = (["glsn"] if include_glsn else []) + list(columns)
    rows = []
    for record in records:
        row = [format_glsn(record.glsn)] if include_glsn else []
        row.extend(str(record.values.get(c, missing)) for c in columns)
        rows.append(row)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)

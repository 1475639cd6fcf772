"""Trace exporters: JSON-lines span log and a human-readable span tree.

The JSON-lines format writes one span object per line in completion
order (children precede parents, matching the order the tracer closed
them).  Every field is JSON-native, so the file round-trips exactly:
``loads_jsonl(export_jsonl(spans))`` reconstructs equal spans.  This is
the interchange format the ``python -m repro trace-report`` CLI reads
and the CI workflow uploads as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.tracer import Span, SpanEvent

__all__ = [
    "span_to_dict",
    "span_from_dict",
    "export_jsonl",
    "write_jsonl",
    "load_jsonl",
    "loads_jsonl",
    "render_tree",
    "escape_label_value",
    "escape_help_text",
]


def span_to_dict(span: Span) -> dict:
    data = {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "attributes": dict(span.attributes),
        "events": [event.to_dict() for event in span.events],
    }
    # Trace and party appear only when set, so traces written before
    # propagation existed stay valid and byte-identical on re-export.
    if span.trace_id is not None:
        data["trace_id"] = span.trace_id
    if span.node is not None:
        data["node"] = span.node
    return data


def span_from_dict(data: dict) -> Span:
    return Span(
        name=data["name"],
        span_id=data["span_id"],
        parent_id=data["parent_id"],
        start=data["start"],
        end=data["end"],
        attributes=dict(data.get("attributes", {})),
        events=[
            SpanEvent(
                name=e["name"],
                timestamp=e["ts"],
                attributes=dict(e.get("attributes", {})),
            )
            for e in data.get("events", [])
        ],
        trace_id=data.get("trace_id"),
        node=data.get("node"),
    )


def escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping.

    The exposition format requires backslash, double-quote, and newline
    escaped inside ``label="value"`` — anything else is emitted verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help_text(text: str) -> str:
    """``# HELP`` line escaping: backslash and newline only (no quotes)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def export_jsonl(spans: list[Span]) -> str:
    """One JSON object per line, completion order preserved."""
    return "".join(json.dumps(span_to_dict(s), sort_keys=True) + "\n" for s in spans)


def write_jsonl(spans: list[Span], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(export_jsonl(spans), encoding="utf-8")
    return path


def loads_jsonl(text: str) -> list[Span]:
    spans = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(span_from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError) as exc:
            raise ConfigurationError(
                f"malformed trace line {lineno}: {exc}"
            ) from exc
    return spans


def load_jsonl(path: str | Path) -> list[Span]:
    return loads_jsonl(Path(path).read_text(encoding="utf-8"))


def _children_index(spans: list[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    # Start order within a parent mirrors execution order.
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return children


def render_tree(spans: list[Span], include_events: bool = False) -> str:
    """Indented human-readable dump of the span forest."""
    children = _children_index(spans)
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        pad = "  " * depth
        attrs = ""
        if span.attributes:
            inner = ", ".join(
                f"{k}={span.attributes[k]!r}" for k in sorted(span.attributes)
            )
            attrs = f" [{inner}]"
        lines.append(f"{pad}{span.name} ({span.duration * 1e3:.3f} ms){attrs}")
        if include_events:
            for event in span.events:
                lines.append(f"{pad}  · {event.name} {event.attributes}")
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)

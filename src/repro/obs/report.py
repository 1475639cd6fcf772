"""Cost attribution over a span tree.

Turns a trace into the table the paper's §5 analysis wants: for every
span, the wall-clock time, messages, bytes, and modular exponentiations
it accounts for, plus its share of the parent span.  Spans that recorded
explicit cost attributes (the protocol drivers and the query executor
do) report those; structural spans without them inherit the sum of
their children — so the table is consistent at every level of
``run → protocol → round → stage``.
"""

from __future__ import annotations

from repro.obs.export import _children_index
from repro.obs.tracer import Span

__all__ = [
    "COST_KEYS",
    "span_cost",
    "attribution_rows",
    "render_attribution",
    "critical_path",
    "render_critical_path",
]

COST_KEYS = ("messages", "bytes", "modexp")


def span_cost(
    span: Span,
    children: dict[int | None, list[Span]],
    _memo: dict[int, dict] | None = None,
) -> dict:
    """Cost vector of one span: own attributes, else the sum over children."""
    memo = {} if _memo is None else _memo
    cached = memo.get(span.span_id)
    if cached is not None:
        return cached
    cost = {"time": span.duration}
    kids = children.get(span.span_id, [])
    for key in COST_KEYS:
        if key in span.attributes:
            cost[key] = span.attributes[key]
        else:
            cost[key] = sum(span_cost(kid, children, memo)[key] for kid in kids)
    memo[span.span_id] = cost
    return cost


def _percent(part: float, whole: float) -> str:
    if whole <= 0:
        return "—"
    return f"{100.0 * part / whole:.1f}%"


def attribution_rows(spans: list[Span]) -> list[dict]:
    """Flatten the span forest into table rows (depth-first, run order).

    Each row carries ``depth``, ``name``, the cost vector, the share of
    the parent's wall-clock (``of_parent``) and the span's event count.
    """
    children = _children_index(spans)
    memo: dict[int, dict] = {}
    rows: list[dict] = []

    def walk(span: Span, depth: int, parent_cost: dict | None) -> None:
        cost = span_cost(span, children, memo)
        rows.append(
            {
                "depth": depth,
                "name": span.name,
                "time": cost["time"],
                "messages": cost["messages"],
                "bytes": cost["bytes"],
                "modexp": cost["modexp"],
                "of_parent": _percent(
                    cost["time"], parent_cost["time"] if parent_cost else 0.0
                ),
                "events": len(span.events),
            }
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1, cost)

    for root in children.get(None, []):
        walk(root, 0, None)
    return rows


def render_attribution(spans: list[Span]) -> str:
    """The ``trace-report`` table: cost attribution per span."""
    rows = attribution_rows(spans)
    if not rows:
        return "(empty trace)"
    rendered = [
        (
            "  " * row["depth"] + row["name"],
            f"{row['time'] * 1e3:.3f}",
            row["of_parent"],
            str(row["messages"]),
            str(row["bytes"]),
            str(row["modexp"]),
            str(row["events"]),
        )
        for row in rows
    ]
    headers = ("span", "time ms", "% parent", "msgs", "bytes", "modexp", "events")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rendered:
        cells = [r[0].ljust(widths[0])]
        cells += [r[i].rjust(widths[i]) for i in range(1, len(headers))]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def critical_path(spans: list[Span], root: Span | None = None) -> list[dict]:
    """The chain of spans that determined the root's end time.

    From the root (the longest root span when not given), repeatedly
    descend into the child that *finished last* — with sequential ring
    protocols that is exactly the hop the query was waiting on.  Each row
    reports the span's own duration, its ``self_ms`` (time not covered
    by the next span on the path), and its share of the root.
    """
    if not spans:
        return []
    children = _children_index(spans)
    if root is None:
        roots = children.get(None, [])
        if not roots:
            return []
        root = max(roots, key=lambda s: s.duration)

    path: list[Span] = [root]
    node = root
    while True:
        kids = [k for k in children.get(node.span_id, []) if k.end is not None]
        if not kids:
            break
        node = max(kids, key=lambda k: (k.end, k.start))
        path.append(node)

    total = root.duration or 0.0
    rows: list[dict] = []
    for i, span in enumerate(path):
        following = path[i + 1].duration if i + 1 < len(path) else 0.0
        rows.append(
            {
                "name": span.name,
                "node": span.node or "coord",
                "duration": span.duration,
                "self": max(0.0, span.duration - following),
                "of_root": (span.duration / total) if total > 0 else 0.0,
            }
        )
    return rows


def render_critical_path(spans: list[Span]) -> str:
    """Human-readable critical path: which hop dominates the query."""
    rows = critical_path(spans)
    if not rows:
        return "(empty trace)"
    rendered = [
        (
            "  " * i + row["name"],
            row["node"],
            f"{row['duration'] * 1e3:.3f}",
            f"{row['self'] * 1e3:.3f}",
            f"{row['of_root'] * 100:.1f}%",
        )
        for i, row in enumerate(rows)
    ]
    headers = ("critical path", "node", "span ms", "self ms", "% of root")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rendered:
        cells = [r[0].ljust(widths[0])]
        cells += [r[i].rjust(widths[i]) for i in range(1, len(headers))]
        lines.append("  ".join(cells))
    dominant = max(rows, key=lambda r: r["self"])
    lines.append(
        f"dominant: {dominant['name']} on {dominant['node']} "
        f"({dominant['self'] * 1e3:.3f} ms self)"
    )
    return "\n".join(lines)

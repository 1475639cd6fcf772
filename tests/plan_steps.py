"""What a traced query ran, set against the steps its bound plan fixed.

``QueryExecutor._bind`` fixes every protocol a query runs before the
first ring; these helpers read the same list twice — once from the bound
plan, once from the ``query.predicate`` spans a tracer kept — so a test
can hold the two equal.  A protocol is ``(span name, parties)``, its
parties the nodes whose handler spans ran under it.
"""

from __future__ import annotations

from collections import defaultdict

TTP = "ttp"  # the blind comparison's default third party


def bound_runs(bound) -> list[tuple]:
    """Per step of ``bound``: predicate, primitive, parties, protocols."""
    out = []
    for step in (step for clause in bound.clauses for step in clause.steps):
        nodes = frozenset(step.nodes)
        protocols = []
        if step.primitive == "ssi":
            protocols.append(("smc.intersection", nodes))
        if step.alignment is not None:
            union = step.alignment.route == "absent-union"
            protocols.append(("smc.union" if union else "smc.intersection", nodes))
        if step.primitive == "scmp":
            protocols.append(("smc.compare", nodes | {TTP}))
        out.append((str(step.predicate), step.primitive, step.nodes, protocols))
    return out


def traced_runs(spans) -> list[tuple]:
    """The same list, from a tracer's finished ``spans``, in the order run."""
    spans = sorted(spans, key=lambda span: span.span_id)
    children = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)

    def parties(span) -> frozenset:
        below, nodes = list(children[span.span_id]), set()
        while below:
            child = below.pop()
            if child.name.startswith("node."):
                nodes.add(child.node)
            below.extend(children[child.span_id])
        return frozenset(nodes)

    return [
        (
            span.attributes["predicate"],
            span.attributes["primitive"],
            tuple(span.attributes["nodes"]),
            [
                (child.name, parties(child))
                for child in children[span.span_id]
                if child.name.startswith("smc.")
            ],
        )
        for span in spans
        if span.name == "query.predicate"
    ]

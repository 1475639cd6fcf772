"""A cross-node order predicate the naive way: one ``secure_compare`` per glsn.

The transcription of §3.3 runs a 4-message blind-TTP session for every glsn
holding both attributes.  The executor instead runs one
``secure_compare_batch`` over the same pairs; tests and bench A2 hold the
two against each other.  The values are the executor's own: its
fixed-point rule (``_scaled_int``) and its public value bound, so the loop
cannot drift from what the executor compares.
"""

from __future__ import annotations

from repro.audit.executor import _VALUE_BOUND, _scaled_int
from repro.smc.comparison import evaluate_operator, secure_compare


def scaled_pairs(store, left: str, right: str):
    """``(left_node, right_node, glsns, pairs)``: every glsn holding both
    attributes, in order, and its fixed-point ``(left, right)`` values."""
    homes = store.plan.home_of(left), store.plan.home_of(right)
    columns = [
        {frag.glsn: frag.values[attr] for frag in store.node_store(node).scan()
         if attr in frag.values}
        for node, attr in zip(homes, (left, right))
    ]
    glsns = sorted(columns[0].keys() & columns[1].keys())
    pairs = [tuple(_scaled_int(column[glsn]) for column in columns) for glsn in glsns]
    return homes[0], homes[1], glsns, pairs


def per_pair_verdicts(ctx, left_node: str, right_node: str, pairs, net) -> list[str]:
    """One ``secure_compare`` session per pair; the verdicts in order."""
    return [
        secure_compare(
            ctx, (left_node, a), (right_node, b), value_bound=_VALUE_BOUND, net=net,
            session=f"q-{i}",
        ).any_value
        for i, (a, b) in enumerate(pairs)
    ]


def per_pair_compare(store, ctx, left: str, op: str, right: str, net) -> list[int]:
    """The glsns satisfying ``left op right``, by the per-pair loop."""
    left_node, right_node, glsns, pairs = scaled_pairs(store, left, right)
    verdicts = per_pair_verdicts(ctx, left_node, right_node, pairs, net)
    return [glsn for glsn, verdict in zip(glsns, verdicts) if evaluate_operator(op, verdict)]

"""Every ring driver as one case for the fault sweeps.

``DRIVER_CASES[name](prime, net)`` runs one driver over ``net`` and returns
``(answer, expected)``.  An integrity case's answer names every requested
glsn, so a round that returned verdicts for only part of the request
compares unequal instead of passing on the glsns it did cover.
"""

from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.logstore import (
    DistributedLogStore,
    paper_fragment_plan,
    paper_table1_schema,
)
from repro.logstore.integrity import (
    run_batched_integrity_round,
    run_combined_integrity_round,
    run_integrity_round,
)
from repro.smc.base import SmcContext
from repro.smc.comparison import secure_compare, secure_compare_batch
from repro.smc.equality import secure_equality
from repro.smc.intersection import secure_set_intersection
from repro.smc.ranking import secure_ranking
from repro.smc.sum_ import secure_sum
from repro.smc.union_ import secure_set_union

SETS = {"P0": ["a", "b"], "P1": ["b", "c"], "P2": ["b", "d"], "P3": ["b", "e"]}
# Union's reversible encoding requires small non-negative integers.
INT_SETS = {"P0": [1, 2], "P1": [2, 3], "P2": [2, 4], "P3": [2, 5]}
VALUES = {"P0": 11, "P1": 7, "P2": 25, "P3": 3}


def small_store(tag: str = "driver-cases") -> DistributedLogStore:
    schema = paper_table1_schema()
    auth = TicketAuthority(b"chaos-matrix-master-secret-01234")
    store = DistributedLogStore(
        paper_fragment_plan(schema),
        auth,
        AccumulatorParams.generate(128, DeterministicRng(tag.encode())),
    )
    ticket = auth.issue("U1", {Operation.READ, Operation.WRITE})
    for i in range(4):
        store.append({"C1": 10 + i, "C2": f"{i}.00"}, ticket)
    return store


def _smc(driver, expected, *args, **kwargs):
    def run(prime, net):
        ctx = SmcContext(prime, DeterministicRng(b"driver-cases"))
        return driver(ctx, *args, net=net, **kwargs).values, expected

    return run


def _everyone(parties, value):
    return {party: value for party in parties}


def _integrity(round_fn):
    def run(prime, net):
        store = small_store()
        reports = round_fn(store, net=net)
        if isinstance(reports, list):
            answer = {r.glsn: r.ok and r.verified for r in reports}
        else:  # the combined round's single verdict over the whole request
            answer = dict.fromkeys(reports.glsns, reports.ok and reports.verified)
        return answer, dict.fromkeys(store.glsns, True)

    return run


_RANKS = {"P0": 3, "P1": 2, "P2": 4, "P3": 1}

DRIVER_CASES = {
    "intersection": _smc(secure_set_intersection, _everyone(SETS, ["b"]), SETS),
    "union": _smc(secure_set_union, _everyone(INT_SETS, [1, 2, 3, 4, 5]), INT_SETS),
    "sum": _smc(secure_sum, _everyone(VALUES, 46), VALUES),
    "equality": _smc(
        secure_equality, {"A": True, "B": True}, ("A", "tcp"), ("B", "tcp")
    ),
    "compare": _smc(
        secure_compare, {"A": "lt", "B": "lt"}, ("A", 9), ("B", 30), value_bound=100
    ),
    "compare_batch": _smc(
        secure_compare_batch,
        _everyone("AB", ["lt", "eq", "gt"]),
        ("A", [1, 50, 30]),
        ("B", [2, 50, 7]),
        value_bound=100,
    ),
    "ranking": _smc(
        secure_ranking,
        {
            p: {"rank": rank, "argmax": "P2", "argmin": "P3", "n": 4}
            for p, rank in _RANKS.items()
        },
        VALUES,
    ),
    "integrity_per_glsn": _integrity(run_integrity_round),
    "integrity_batched": _integrity(run_batched_integrity_round),
    "integrity_combined": _integrity(run_combined_integrity_round),
}

#: Who takes part in each case: the nodes a crash sweep can take down.
_PAIR = ["A", "B", "ttp"]
DRIVER_NODES = dict.fromkeys(DRIVER_CASES, sorted(SETS)) | {
    "equality": _PAIR,
    "compare": _PAIR,
    "compare_batch": _PAIR,
    "ranking": sorted(VALUES) + ["ttp"],
}

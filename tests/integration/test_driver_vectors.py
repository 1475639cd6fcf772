"""Recorded cost vectors of every ring driver on a plain ``SimNetwork``.

One launch path serves the default deployment and the fault tests alike,
so "same answers, same bill" has to be pinned somewhere that does not
compare the path with itself: ``RECORDED`` was captured on the commit
before the drivers were routed through the failover supervisor
(5cb3963), with the seeds and the 64-bit prime below.  Each vector is
the run's message count, wire bytes, per-kind frame counts,
``total.modexp`` and the leakage ledger as a ``(protocol, party,
category)`` sequence.

Only ``integrity_per_glsn`` differs from that commit in its kinds: a
per-glsn token now travels as a single-glsn ``integ.mpass``/``integ.mdone``
frame, 7 bytes longer than the scalar ``integ.pass``/``integ.done`` form
it replaces (5 glsns x 4 frames: 3 270 -> 3 410 bytes).  Since then the
bytes moved twice more: every frame lost its ``"seq":N,`` key, and the
codec went from hex-in-JSON to a length-prefixed JSON envelope plus
fixed-width binary element blocks.  So ``bytes`` is re-recorded, and
:func:`test_bytes_are_envelopes_plus_blocks` pins what it is made of.
Message counts, folds, ledgers and reports are unchanged.  The combined
product-fold ring's two scenarios went with that ring.
"""

import json

import pytest

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
    run_integrity_round,
)
from repro.net.codec import encode_message
from repro.net.simnet import SimNetwork
from repro.net.stats import CryptoOpCounter
from repro.smc.base import SmcContext
from repro.smc.comparison import secure_compare, secure_compare_batch
from repro.smc.equality import secure_equality
from repro.smc.intersection import secure_set_intersection
from repro.smc.ranking import secure_ranking
from repro.smc.sum_ import secure_weighted_sum
from repro.smc.union_ import secure_set_union

SETS = {"P0": ["a", "b", "c"], "P1": ["b", "c", "d"], "P2": ["c", "b", "e"]}
INT_SETS = {"P0": [1, 2], "P1": [2, 3], "P2": [2, 4]}
VALUES = {"P0": 11, "P1": 7, "P2": 25, "P3": 3}


def _store() -> DistributedLogStore:
    schema = paper_table1_schema()
    auth = TicketAuthority(b"driver-vectors-master-secret-012")
    store = DistributedLogStore(
        paper_fragment_plan(schema),
        auth,
        AccumulatorParams.generate(128, DeterministicRng(b"driver-vectors")),
    )
    ticket = auth.issue("U1", {Operation.READ, Operation.WRITE})
    for i in range(5):
        store.append({"C1": 10 + i, "C2": f"{i}.00", "C3": f"v{i}"}, ticket)
    return store


def _logged_net() -> SimNetwork:
    net = SimNetwork()
    net.keep_delivery_log = True
    return net


def _smc(driver, *args, **kwargs):
    def run(prime):
        ctx = SmcContext(prime, DeterministicRng(b"driver-vectors"))
        net = _logged_net()
        result = driver(ctx, *args, net=net, **kwargs)
        return result.values, net, ctx.crypto_ops.ops["total.modexp"], [
            (e.protocol, e.observer, e.category) for e in ctx.leakage.events
        ]

    return run


def _integrity(driver, **kwargs):
    def run(prime):
        store = _store()
        net, crypto = _logged_net(), CryptoOpCounter()
        reports = driver(store, net=net, crypto=crypto, **kwargs)
        return [r.ok for r in reports], net, crypto.ops["total.modexp"], []

    return run


SCENARIOS = {
    "intersection": _smc(secure_set_intersection, SETS),
    "intersection_shuffled": _smc(
        secure_set_intersection, SETS, shuffle=True, observers=["P1", "P2"],
        collector="P2", ring=["P2", "P0", "P1"],
    ),
    "union": _smc(secure_set_union, INT_SETS),
    "weighted_sum": _smc(
        secure_weighted_sum, VALUES, {"P0": 1, "P1": 2, "P2": 3, "P3": 4}, k=3
    ),
    "equality": _smc(secure_equality, ("A", "tcp"), ("B", "tcp")),
    "compare": _smc(secure_compare, ("A", 9), ("B", 30), value_bound=100),
    "compare_batch": _smc(
        secure_compare_batch, ("A", [1, 50, 30]), ("B", [2, 50, 7]), value_bound=100
    ),
    "ranking": _smc(secure_ranking, VALUES),
    "integrity_per_glsn": _integrity(run_integrity_round, initiator="P2"),
    "integrity_batched": _integrity(run_batched_integrity_round),
}


def measure(name: str, prime: int) -> dict:
    """Run one scenario; a run is a function of the seed and the prime."""
    answer, net, modexp, ledger = SCENARIOS[name](prime)
    return {
        "answer": answer,
        "messages": net.stats.messages,
        "bytes": net.stats.bytes,
        "by_kind": dict(sorted(net.stats.by_kind.items())),
        "modexp": modexp,
        "ledger": ledger,
    }


RECORDED = {'compare': {'answer': {'A': 'lt', 'B': 'lt'},
             'messages': 4,
             'bytes': 402,
             'by_kind': {'scmp.blinded': 2, 'scmp.verdict': 2},
             'modexp': 0,
             'ledger': [('secure_compare', 'ttp', 'order_statistics')]},
 'compare_batch': {'answer': {'A': ['lt', 'eq', 'gt'], 'B': ['lt', 'eq', 'gt']},
                   'messages': 4,
                   'bytes': 480,
                   'by_kind': {'scmpb.blinded': 2, 'scmpb.verdict': 2},
                   'modexp': 0,
                   'ledger': [('secure_compare', 'ttp', 'order_statistics')]},
 'equality': {'answer': {'A': True, 'B': True},
              'messages': 4,
              'bytes': 428,
              'by_kind': {'seq.blinded': 2, 'seq.verdict': 2},
              'modexp': 0,
              'ledger': [('secure_equality', 'ttp', 'equality_verdict')]},
 'integrity_batched': {'answer': [True, True, True, True, True],
                       'messages': 4,
                       'bytes': 964,
                       'by_kind': {'integ.mdone': 1, 'integ.mpass': 3},
                       'modexp': 20,
                       'ledger': []},
 'integrity_per_glsn': {'answer': [True, True, True, True, True],
                        'messages': 20,
                        'bytes': 2940,
                        'by_kind': {'integ.mdone': 5, 'integ.mpass': 15},
                        'modexp': 20,
                        'ledger': []},
 'intersection': {'answer': {'P0': ['b', 'c'], 'P1': ['b', 'c'], 'P2': ['b', 'c']},
                  'messages': 14,
                  'bytes': 1624,
                  'by_kind': {'ssi.full': 3,
                              'ssi.positions': 3,
                              'ssi.relay': 6,
                              'ssi.result': 2},
                  'modexp': 27,
                  'ledger': [('secure_set_intersection', 'P1', 'set_size'),
                             ('secure_set_intersection', 'P2', 'set_size'),
                             ('secure_set_intersection', 'P0', 'set_size'),
                             ('secure_set_intersection', 'P2', 'set_size'),
                             ('secure_set_intersection', 'P0', 'set_size'),
                             ('secure_set_intersection', 'P1', 'set_size'),
                             ('secure_set_intersection', 'P0', 'result_cardinality'),
                             ('secure_set_intersection', 'P0', 'position_linkage')]},
 'intersection_shuffled': {'answer': {'P1': ['b', 'c'], 'P2': ['b', 'c']},
                           'messages': 12,
                           'bytes': 1508,
                           'by_kind': {'ssi.decrypt': 2,
                                       'ssi.full': 3,
                                       'ssi.relay': 6,
                                       'ssi.result': 1},
                           'modexp': 33,
                           'ledger': [('secure_set_intersection', 'P1', 'set_size'),
                                      ('secure_set_intersection', 'P2', 'set_size'),
                                      ('secure_set_intersection', 'P0', 'set_size'),
                                      ('secure_set_intersection', 'P2', 'set_size'),
                                      ('secure_set_intersection', 'P0', 'set_size'),
                                      ('secure_set_intersection', 'P1', 'set_size'),
                                      ('secure_set_intersection', 'P2', 'result_cardinality')]},
 'ranking': {'answer': {'P0': {'rank': 3, 'argmax': 'P2', 'argmin': 'P3', 'n': 4},
                        'P1': {'rank': 2, 'argmax': 'P2', 'argmin': 'P3', 'n': 4},
                        'P2': {'rank': 4, 'argmax': 'P2', 'argmin': 'P3', 'n': 4},
                        'P3': {'rank': 1, 'argmax': 'P2', 'argmin': 'P3', 'n': 4}},
             'messages': 8,
             'bytes': 732,
             'by_kind': {'rank.blinded': 4, 'rank.verdict': 4},
             'modexp': 0,
             'ledger': [('secure_ranking', 'ttp', 'order_statistics'),
                        ('secure_ranking', 'ttp', 'scaled_gap')]},
 'union': {'answer': {'P0': [1, 2, 3, 4], 'P1': [1, 2, 3, 4], 'P2': [1, 2, 3, 4]},
           'messages': 13,
           'bytes': 1445,
           'by_kind': {'ssu.decrypt': 2, 'ssu.full': 3, 'ssu.relay': 6, 'ssu.result': 2},
           'modexp': 30,
           'ledger': [('secure_set_union', 'P1', 'set_size'),
                      ('secure_set_union', 'P2', 'set_size'),
                      ('secure_set_union', 'P0', 'set_size'),
                      ('secure_set_union', 'P2', 'set_size'),
                      ('secure_set_union', 'P0', 'set_size'),
                      ('secure_set_union', 'P1', 'set_size'),
                      ('secure_set_union', 'P0', 'result_cardinality')]},
 'weighted_sum': {'answer': {'P0': 112, 'P1': 112, 'P2': 112, 'P3': 112},
                  'messages': 24,
                  'bytes': 1813,
                  'by_kind': {'ssum.fshare': 12, 'ssum.share': 12},
                  'modexp': 0,
                  'ledger': [('secure_sum', '*', 'value_bound')]}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_driver_matches_the_recorded_parent_vector(name, prime64):
    assert measure(name, prime64) == RECORDED[name]


def _block_shapes(value):
    """``(count, width)`` of every block placeholder in a parsed envelope."""
    if isinstance(value, list):
        for item in value:
            yield from _block_shapes(item)
    elif isinstance(value, dict):
        if len(value) == 1 and "__ints__" in value:
            yield tuple(value["__ints__"])
        elif len(value) == 1 and "__int__" in value:
            yield 1, value["__int__"]
        elif len(value) == 1 and "__bytes__" in value:
            yield value["__bytes__"], 1
        else:
            for item in value.values():
                yield from _block_shapes(item)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bytes_are_envelopes_plus_blocks(name, prime64):
    """A scenario's bytes are, frame by frame, the 4-byte envelope length,
    the JSON envelope, and ``count x |width|`` bytes per element block."""
    _answer, net, _modexp, _ledger = SCENARIOS[name](prime64)
    frames = net._delivered_log
    assert len(frames) == RECORDED[name]["messages"]
    total = 0
    for msg in frames:
        body = encode_message(msg)
        end = 4 + int.from_bytes(body[:4], "big")
        blocks = sum(c * abs(w) for c, w in _block_shapes(json.loads(body[4:end])))
        assert len(body) == msg.size_bytes == end + blocks
        total += end + blocks
    assert total == RECORDED[name]["bytes"]


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python <this file>
    import pprint

    from repro.crypto import shared_prime

    pprint.pprint(
        {name: measure(name, shared_prime(64)) for name in sorted(SCENARIOS)},
        width=96, sort_dicts=False,
    )

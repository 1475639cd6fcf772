"""Ablation A2: per-glsn vs batched blind-TTP comparison.

Cross-node *order* predicates (``C1 < C2``) need one private comparison
per common glsn.  The naive transcription of §3.3 runs a 4-message TTP
session per glsn; batching submits all blinded values in one message per
party.  Same leakage per comparison, drastically fewer messages — the kind
of engineering the paper leaves implicit.  The executor always batches;
this bench holds a ``secure_compare`` loop against one
``secure_compare_batch`` over the same value pairs: the fixed-point C1 and
C2 of every glsn holding both.
"""

from benchmarks.conftest import print_rows
from repro.audit.executor import _VALUE_BOUND
from repro.crypto import DeterministicRng
from repro.net.simnet import SimNetwork
from repro.smc.base import SmcContext
from repro.smc.comparison import secure_compare_batch
from tests.compare_loop import per_pair_verdicts, scaled_pairs


def value_pairs(loaded_store):
    """``(left_node, right_node, [(C1, C2) per common glsn])``, fixed-point."""
    store, _ = loaded_store
    left, right, _, pairs = scaled_pairs(store, "C1", "C2")
    return left, right, pairs


def per_glsn(prime, seed, loaded_store, net):
    left, right, pairs = value_pairs(loaded_store)
    return per_pair_verdicts(SmcContext(prime, DeterministicRng(seed)), left, right, pairs, net)


def batched(prime, seed, loaded_store, net):
    left, right, pairs = value_pairs(loaded_store)
    ctx = SmcContext(prime, DeterministicRng(seed))
    return secure_compare_batch(
        ctx,
        (left, [a for a, _ in pairs]),
        (right, [b for _, b in pairs]),
        value_bound=_VALUE_BOUND,
        net=net,
        session="qb-1",
    ).any_value


class TestCompareBatching:
    def test_bench_per_glsn(self, benchmark, loaded_store, prime64):
        verdicts = benchmark(per_glsn, prime64, b"a2p", loaded_store, SimNetwork())
        assert verdicts

    def test_bench_batched(self, benchmark, loaded_store, prime64):
        verdicts = benchmark(batched, prime64, b"a2b", loaded_store, SimNetwork())
        assert verdicts

    def test_ablation_report(self, benchmark, loaded_store, prime64):
        def measure():
            loop_net, batch_net = SimNetwork(), SimNetwork()
            costly = per_glsn(prime64, b"a2r1", loaded_store, loop_net)
            cheap = batched(prime64, b"a2r2", loaded_store, batch_net)
            assert cheap == costly
            return [
                ("per-glsn sessions", loop_net.stats.messages, loop_net.stats.bytes),
                ("batched vectors", batch_net.stats.messages, batch_net.stats.bytes),
            ]

        table = benchmark(measure)
        common = len(value_pairs(loaded_store)[2])
        print_rows(
            f"A2: cross-order comparison batching ({common} common glsns)",
            ["mode", "messages", "bytes"],
            table,
        )
        per_row, batch_row = table
        assert batch_row[1] < per_row[1] / 10

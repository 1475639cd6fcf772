"""Experiment X4: confidential distributed data mining (abstract, ref [20]).

Measures the intersection-size primitive and cross-node association
mining: cost vs record count and vs value-domain size, and the privacy
property that sub-threshold associations are never opened.
"""

import pytest

from benchmarks.conftest import print_rows
from repro.crypto import (
    AccumulatorParams,
    DeterministicRng,
    Operation,
    TicketAuthority,
)
from repro.logstore import DistributedLogStore
from repro.mining import mine_cross_associations, secure_intersection_size
from repro.net.simnet import SimNetwork
from repro.smc.base import SmcContext


def build_store(plan, records: int, domain: int, seed: bytes):
    """protocl (P3) drawn from `domain` values, C3 (P2) correlated."""
    rng = DeterministicRng(seed)
    authority = TicketAuthority(b"x4-bench-master-secret-32bytes!!")
    store = DistributedLogStore(
        plan, authority, AccumulatorParams.generate(128, rng)
    )
    ticket = authority.issue("U1", {Operation.READ, Operation.WRITE})
    rows = []
    for _ in range(records):
        left = rng.randbelow(domain)
        # 80% correlated, 20% noise.
        right = left if rng.random() < 0.8 else rng.randbelow(domain)
        rows.append({"protocl": f"proto-{left}", "C3": f"label-{right}"})
    store.append_batch(rows, ticket)
    return store


class TestIntersectionSizePrimitive:
    @pytest.mark.parametrize("size", [8, 32, 128])
    def test_bench_size_protocol(self, benchmark, prime64, size):
        left = list(range(size))
        right = list(range(size // 2, size + size // 2))

        def run():
            ctx = SmcContext(prime64, DeterministicRng(b"x4a"))
            return secure_intersection_size(ctx, ("A", left), ("B", right))

        result = benchmark(run)
        assert result.any_value == size - size // 2

    def test_size_protocol_cost_report(self, benchmark, prime64):
        def sweep():
            table = []
            for size in (8, 32, 128):
                ctx = SmcContext(prime64, DeterministicRng(b"x4b"))
                net = SimNetwork()
                secure_intersection_size(
                    ctx, ("A", list(range(size))), ("B", list(range(size))),
                    net=net,
                )
                table.append(
                    (size, net.stats.messages, net.stats.bytes,
                     ctx.crypto_ops.modexp)
                )
            return table

        table = benchmark(sweep)
        print_rows(
            "X4: intersection-size protocol cost",
            ["set size", "messages", "bytes", "modexp"],
            table,
        )
        # Constant 4 messages; modexp = 4·|S| (2 encryptions per side).
        assert all(messages == 4 for _, messages, _, _ in table)
        assert all(modexp == 4 * size for size, _, _, modexp in table)


class TestAssociationMining:
    @pytest.mark.parametrize("records", [40, 120])
    def test_bench_mining_vs_records(self, benchmark, plan, prime64, records):
        store = build_store(plan, records, domain=3, seed=b"x4c")

        def run():
            ctx = SmcContext(prime64, DeterministicRng(b"x4d"))
            return mine_cross_associations(
                store, ctx, "protocl", "C3", min_support=3
            )

        rules = benchmark(run)
        assert rules  # the 80% correlation must surface

    def test_mining_report(self, benchmark, plan, prime64):
        store = build_store(plan, 100, domain=3, seed=b"x4e")

        def run():
            ctx = SmcContext(prime64, DeterministicRng(b"x4f"))
            net = SimNetwork()
            rules = mine_cross_associations(
                store, ctx, "protocl", "C3", min_support=5, net=net
            )
            return rules, net.stats.messages, net.stats.bytes

        rules, messages, bytes_ = benchmark(run)
        table = [
            (f"{r.attribute_a}={r.value_a}", f"{r.attribute_b}={r.value_b}",
             r.support, f"{r.confidence:.2f}")
            for r in rules
        ]
        print_rows(
            "X4: qualifying associations (support >= 5)",
            ["antecedent", "consequent", "support", "confidence"],
            table,
        )
        print(f"protocol traffic: {messages} messages, {bytes_} bytes")
        # The injected correlation: proto-i => label-i dominates.
        diagonal = [r for r in rules if str(r.value_a)[-1] == str(r.value_b)[-1]]
        assert len(diagonal) >= 3
        for rule in diagonal:
            assert rule.confidence > 0.5

    def test_bench_domain_sweep(self, benchmark, plan, prime64):
        """Candidate pairs grow with the value-domain product."""

        def sweep():
            table = []
            for domain in (2, 4, 8):
                store = build_store(
                    plan, 60, domain=domain, seed=f"x4g{domain}".encode()
                )
                ctx = SmcContext(prime64, DeterministicRng(b"x4h"))
                net = SimNetwork()
                mine_cross_associations(
                    store, ctx, "protocl", "C3", min_support=2, net=net
                )
                table.append((domain, net.stats.messages))
            return table

        table = benchmark(sweep)
        print_rows(
            "X4: mining traffic vs value-domain size",
            ["domain", "messages"],
            table,
        )
        assert table[-1][1] > table[0][1]

"""More SMC protocols over real TCP sockets: secure sum, ranking, size."""

import time

import pytest

from repro.crypto import DeterministicRng
from repro.crypto.pohlig_hellman import shared_prime
from repro.crypto.primes import prime_above
from repro.crypto.shamir import ShamirScheme
from repro.mining.size_protocol import SizeParty
from repro.aio import AsyncTcpCluster
from repro.smc.base import SmcContext
from repro.smc.ranking import MonotoneBlinding, RankingParty, RankingTtp
from repro.smc.sum_ import SumParty


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSumOverTcp:
    def test_secure_sum_three_parties(self):
        ctx = SmcContext(shared_prime(64), DeterministicRng(b"tcp-sum"))
        values = {"A": 11, "B": 22, "C": 9}
        parties = sorted(values)
        scheme = ShamirScheme(k=3, n=3, p=prime_above(10**6))
        nodes = {}
        for pid in parties:
            node = SumParty(pid, values[pid], 1, ctx, parties, parties, scheme)
            node._all_weights = [1, 1, 1]
            nodes[pid] = node
        with AsyncTcpCluster(parties) as cluster:
            for pid, node in nodes.items():
                cluster[pid].set_handler(node.handle)
            for pid, node in nodes.items():
                node.start(cluster[pid])
            assert wait_until(
                lambda: all(nodes[p].state.result is not None for p in parties)
            )
        assert all(nodes[p].state.result == 42 for p in parties)


class TestRankingOverTcp:
    def test_ranking_with_real_ttp(self):
        ctx = SmcContext(shared_prime(64), DeterministicRng(b"tcp-rank"))
        values = {"A": 100, "B": 7, "C": 55}
        blinding = MonotoneBlinding.agree(ctx, "tcp-rank", max(values.values()))
        ttp = RankingTtp("ttp", ctx, expected=len(values))
        parties = {
            pid: RankingParty(pid, val, ctx, blinding, "ttp")
            for pid, val in values.items()
        }
        with AsyncTcpCluster(["ttp"] + sorted(values)) as cluster:
            cluster["ttp"].set_handler(ttp.handle)
            for pid, party in parties.items():
                cluster[pid].set_handler(party.handle)
            for pid, party in parties.items():
                party.start(cluster[pid])
            assert wait_until(
                lambda: all(p.verdict is not None for p in parties.values())
            )
        assert parties["A"].verdict["argmax"] == "A"
        assert parties["B"].verdict["rank"] == 1


class TestSizeOverTcp:
    def test_intersection_size(self):
        ctx = SmcContext(shared_prime(64), DeterministicRng(b"tcp-size"))
        left = SizeParty("A", [1, 2, 3, 4, 5], ctx, "B")
        right = SizeParty("B", [4, 5, 6], ctx, "A")
        with AsyncTcpCluster(["A", "B"]) as cluster:
            cluster["A"].set_handler(left.handle)
            cluster["B"].set_handler(right.handle)
            left.start(cluster["A"])
            right.start(cluster["B"])
            assert wait_until(
                lambda: left.state.result is not None
                and right.state.result is not None
            )
        assert left.state.result == right.state.result == 2

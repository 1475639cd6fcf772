"""The same protocol objects running over real localhost TCP sockets.

The SMC party classes are transport-agnostic: this test wires
IntersectionParty instances to AsyncTcpNode handlers and verifies the Figure 4
result appears over genuine sockets, byte-identical frames and all.
"""

import time

import pytest

from repro.crypto import DeterministicRng
from repro.crypto.pohlig_hellman import shared_prime
from repro.aio import AsyncTcpCluster
from repro.smc.base import SmcContext
from repro.smc.intersection import IntersectionParty

FIG4_SETS = {"P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"]}


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestIntersectionOverTcp:
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_figure4_over_sockets(self, shuffle):
        ctx = SmcContext(shared_prime(64), DeterministicRng(b"tcp-fig4"))
        parties = sorted(FIG4_SETS)
        observers = parties
        collector = parties[0]
        nodes = {
            pid: IntersectionParty(
                pid, FIG4_SETS[pid], ctx, parties, observers, collector,
                shuffle=shuffle,
            )
            for pid in parties
        }
        with AsyncTcpCluster(parties) as cluster:
            for pid, party in nodes.items():
                cluster[pid].set_handler(party.handle)
            for pid, party in nodes.items():
                party.start(cluster[pid])
            done = wait_until(
                lambda: all(nodes[o].state.result is not None for o in observers)
            )
            assert done, "protocol did not complete over TCP"
        for observer in observers:
            assert nodes[observer].state.result == ["e"]

    def test_larger_sets_over_sockets(self):
        ctx = SmcContext(shared_prime(64), DeterministicRng(b"tcp-big"))
        sets = {
            "A": [f"item-{i}" for i in range(0, 30)],
            "B": [f"item-{i}" for i in range(15, 45)],
        }
        parties = sorted(sets)
        nodes = {
            pid: IntersectionParty(pid, sets[pid], ctx, parties, parties, "A")
            for pid in parties
        }
        with AsyncTcpCluster(parties) as cluster:
            for pid, party in nodes.items():
                cluster[pid].set_handler(party.handle)
            for pid, party in nodes.items():
                party.start(cluster[pid])
            assert wait_until(
                lambda: all(nodes[p].state.result is not None for p in parties)
            )
        expected = sorted(set(sets["A"]) & set(sets["B"]))
        assert sorted(nodes["A"].state.result) == expected

"""Tests for the simulated network (virtual clock, delivery, stats)."""

import pytest

from repro.errors import ConfigurationError, NodeUnreachableError
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.simnet import LinkModel, SimNetwork


def make_sink(log):
    def handler(msg, net):
        log.append(msg)

    return handler


class TestDelivery:
    def test_basic_delivery(self):
        net = SimNetwork()
        log = []
        net.register("B", make_sink(log))
        net.register("A", make_sink([]))
        net.send(Message(src="A", dst="B", kind="k", payload=42))
        assert net.run() == 1
        assert log[0].payload == 42

    def test_unknown_destination(self):
        net = SimNetwork()
        net.register("A", make_sink([]))
        with pytest.raises(NodeUnreachableError):
            net.send(Message(src="A", dst="ghost", kind="k"))

    def test_handler_chains(self):
        """Handlers may send more messages; run drains transitively."""
        net = SimNetwork()
        log = []

        def forwarder(msg, n):
            if msg.payload < 3:
                n.send(Message(src="A", dst="A", kind="k", payload=msg.payload + 1))
            log.append(msg.payload)

        net.register("A", forwarder)
        net.send(Message(src="A", dst="A", kind="k", payload=0))
        net.run()
        assert log == [0, 1, 2, 3]

    def test_max_steps_guard(self):
        net = SimNetwork()

        def infinite(msg, n):
            n.send(Message(src="A", dst="A", kind="k"))

        net.register("A", infinite)
        net.send(Message(src="A", dst="A", kind="k"))
        with pytest.raises(ConfigurationError):
            net.run(max_steps=50)

    def test_crash_midflight_drops(self):
        net = SimNetwork()
        net.register("A", make_sink([]))
        net.register("B", make_sink([]))
        net.send(Message(src="A", dst="B", kind="k"))
        net.unregister("B")
        net.run()
        assert net.stats.dropped == 1

    def test_broadcast(self):
        net = SimNetwork()
        logs = {n: [] for n in "ABCD"}
        for n in "ABCD":
            net.register(n, make_sink(logs[n]))
        net.broadcast("A", "hello", {"x": 1})
        net.run()
        assert not logs["A"] and all(len(logs[n]) == 1 for n in "BCD")

    def test_broadcast_exclude(self):
        net = SimNetwork()
        logs = {n: [] for n in "ABC"}
        for n in "ABC":
            net.register(n, make_sink(logs[n]))
        net.broadcast("A", "k", None, exclude={"B"})
        net.run()
        assert not logs["B"] and len(logs["C"]) == 1


class TestVirtualClock:
    def test_time_advances_with_latency(self):
        net = SimNetwork(default_link=LinkModel(latency=0.5, bandwidth=1e9))
        net.register("A", make_sink([]))
        net.register("B", make_sink([]))
        net.send(Message(src="A", dst="B", kind="k"))
        net.run()
        assert net.now >= 0.5

    def test_bandwidth_term(self):
        slow = LinkModel(latency=0.0, bandwidth=100.0)  # 100 bytes/s
        net = SimNetwork(default_link=slow)
        net.register("A", make_sink([]))
        net.register("B", make_sink([]))
        msg = Message(src="A", dst="B", kind="k", payload="x" * 200)
        net.send(msg)
        net.run()
        assert net.now == pytest.approx(msg.size_bytes / 100.0)

    def test_per_link_override(self):
        net = SimNetwork(default_link=LinkModel(latency=0.001))
        order = []
        net.register("B", lambda m, n: order.append("B"))
        net.register("C", lambda m, n: order.append("C"))
        net.register("A", make_sink([]))
        net.set_link("A", "B", LinkModel(latency=10.0))
        net.send(Message(src="A", dst="B", kind="k"))
        net.send(Message(src="A", dst="C", kind="k"))
        net.run()
        assert order == ["C", "B"]  # slow link delivers last

    def test_deterministic_tiebreak(self):
        """Equal delivery times deliver in send order."""
        net = SimNetwork(default_link=LinkModel(latency=1.0, bandwidth=1e12))
        order = []
        net.register("B", lambda m, n: order.append(m.payload))
        net.register("A", make_sink([]))
        for i in range(5):
            net.send(Message(src="A", dst="B", kind="k", payload=i))
        net.run()
        assert order == [0, 1, 2, 3, 4]

    def test_invalid_link_model(self):
        model = LinkModel(latency=-1.0)
        with pytest.raises(ConfigurationError):
            model.delay_for(10)


class TestStats:
    def test_counters(self):
        net = SimNetwork()
        net.register("A", make_sink([]))
        net.register("B", make_sink([]))
        for _ in range(3):
            net.send(Message(src="A", dst="B", kind="x", payload="data"))
        net.send(Message(src="B", dst="A", kind="y"))
        net.run()
        assert net.stats.messages == 4
        assert net.stats.by_kind["x"] == 3
        assert net.stats.by_kind["y"] == 1
        assert net.stats.bytes > 0
        assert net.stats.by_link[("A", "B")] == 3

    def test_reset(self):
        net = SimNetwork()
        net.register("A", make_sink([]))
        net.register("B", make_sink([]))
        net.send(Message(src="A", dst="B", kind="x"))
        net.run()
        net.reset_stats()
        assert net.stats.messages == 0 and not net.stats.by_kind

    def test_delivery_log_opt_in(self):
        net = SimNetwork()
        net.keep_delivery_log = True
        net.register("A", make_sink([]))
        net.register("B", make_sink([]))
        net.send(Message(src="A", dst="B", kind="x", payload=9))
        net.run()
        assert [m.payload for m in net.delivery_log] == [9]


class TestFaultIntegration:
    def test_partition_blocks(self):
        faults = FaultPlan()
        faults.partition("A", "B")
        net = SimNetwork(faults=faults)
        log = []
        net.register("A", make_sink([]))
        net.register("B", make_sink(log))
        net.register("C", make_sink(log))
        net.send(Message(src="A", dst="B", kind="k"))
        net.send(Message(src="A", dst="C", kind="k"))
        net.run()
        assert len(log) == 1 and net.stats.dropped == 1

    def test_heal(self):
        faults = FaultPlan()
        faults.partition("A", "B")
        faults.heal("A", "B")
        net = SimNetwork(faults=faults)
        log = []
        net.register("A", make_sink([]))
        net.register("B", make_sink(log))
        net.send(Message(src="A", dst="B", kind="k"))
        net.run()
        assert len(log) == 1

    def test_crash_blocks_both_directions(self):
        faults = FaultPlan()
        faults.crash("B")
        net = SimNetwork(faults=faults)
        net.register("A", make_sink([]))
        net.register("B", make_sink([]))
        net.send(Message(src="A", dst="B", kind="k"))
        net.send(Message(src="B", dst="A", kind="k"))
        net.run()
        assert net.stats.dropped == 2

    def test_duplicate(self):
        from repro.crypto.rng import DeterministicRng

        faults = FaultPlan(duplicate_rate=1.0, rng=DeterministicRng(b"dup"))
        net = SimNetwork(faults=faults)
        log = []
        net.register("A", make_sink([]))
        net.register("B", make_sink(log))
        net.send(Message(src="A", dst="B", kind="k"))
        net.run()
        assert len(log) == 2

    def test_reorder_delay(self):
        from repro.crypto.rng import DeterministicRng

        faults = FaultPlan(
            reorder_rate=1.0, reorder_delay=100.0, rng=DeterministicRng(b"ro")
        )
        net = SimNetwork(faults=faults)
        net.register("A", make_sink([]))
        net.register("B", make_sink([]))
        net.send(Message(src="A", dst="B", kind="k"))
        net.run()
        assert net.now >= 100.0


class TestDrain:
    """``drain`` is ``run`` under an awaitable name: it never suspends."""

    @staticmethod
    def suspensions(coro):
        """Drive ``coro`` by hand: (number of suspensions, return value)."""
        count = 0
        while True:
            try:
                assert coro.send(None) is None  # a bare turn, never a future
            except StopIteration as done:
                return count, done.value
            count += 1

    def test_drain_runs_to_quiescence_without_suspending(self):
        net = SimNetwork()
        net.register("A", make_sink([]))
        log = []
        net.register("B", make_sink(log))
        for _ in range(40):
            net.send(Message(src="A", dst="B", kind="k"))
        assert self.suspensions(net.drain()) == (0, 40)
        assert len(log) == 40
        assert self.suspensions(net.drain()) == (0, 0)  # idle: returns at once

    def test_drain_max_steps_guard(self):
        net = SimNetwork()

        def ping_pong(msg, n):
            n.send(Message(src=msg.dst, dst=msg.src, kind="echo"))

        net.register("A", ping_pong)
        net.register("B", ping_pong)
        net.send(Message(src="A", dst="B", kind="echo"))
        with pytest.raises(ConfigurationError, match="did not quiesce within 10"):
            self.suspensions(net.drain(max_steps=10))

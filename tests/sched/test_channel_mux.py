"""ChannelMux: tagged channels over one shared network never cross-talk."""

from __future__ import annotations

import pytest

from repro.crypto import DeterministicRng
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.simnet import SimNetwork
from repro.resilience import RetryPolicy
from repro.sched import ChannelMux


def collector(sink: list):
    def handler(msg, transport):
        sink.append((msg.src, msg.dst, msg.kind, msg.payload))

    return handler


class TestDispatchIsolation:
    def test_same_party_names_no_cross_dispatch(self):
        """Two queries both register a party 'P0'; each sees only its own."""
        net = SimNetwork()
        mux = ChannelMux(net)
        a, b = mux.channel("qa"), mux.channel("qb")
        seen_a: list = []
        seen_b: list = []
        for node in ("P0", "P1"):
            a.register(node, collector(seen_a))
            b.register(node, collector(seen_b))
        a.send(Message(src="P0", dst="P1", kind="x.ping", payload={"q": "a"}))
        b.send(Message(src="P0", dst="P1", kind="x.ping", payload={"q": "b"}))
        b.send(Message(src="P1", dst="P0", kind="x.pong", payload={"q": "b"}))
        a.run()
        b.run()
        assert seen_a == [("P0", "P1", "x.ping", {"q": "a"})]
        assert sorted(m[2] for m in seen_b) == ["x.ping", "x.pong"]
        assert all(m[3]["q"] == "b" for m in seen_b)

    def test_per_channel_stats(self):
        net = SimNetwork()
        mux = ChannelMux(net)
        a, b = mux.channel("qa"), mux.channel("qb")
        for node in ("P0", "P1"):
            a.register(node, collector([]))
            b.register(node, collector([]))
        for _ in range(3):
            a.send(Message(src="P0", dst="P1", kind="x.data", payload={}))
        b.send(Message(src="P0", dst="P1", kind="x.data", payload={}))
        a.run()
        b.run()
        assert a.stats.messages == 3
        assert b.stats.messages == 1
        assert a.stats.bytes > 0

    def test_untagged_message_is_dropped_not_misrouted(self):
        net = SimNetwork()
        mux = ChannelMux(net)
        a = mux.channel("qa")
        seen: list = []
        a.register("P0", collector(seen))
        a.register("P1", collector(seen))
        net.send(Message(src="P0", dst="P1", kind="x.stray", payload={}))
        assert a.run() == 0  # untagged traffic is no channel's backlog
        net.run()
        assert seen == []
        assert net.stats.dropped == 1

    def test_closed_channel_traffic_is_dropped(self):
        net = SimNetwork()
        mux = ChannelMux(net)
        a, b = mux.channel("qa"), mux.channel("qb")
        seen_b: list = []
        a.register("P0", collector([]))
        a.register("P1", collector([]))
        b.register("P1", collector(seen_b))
        a.send(Message(src="P0", dst="P1", kind="x.late", payload={}))
        a.close()
        net.run()
        assert seen_b == []

    def test_channel_tag_roundtrips_the_codec(self):
        from repro.net.codec import decode_message, encode_message

        msg = Message(src="P0", dst="P1", kind="x.t", payload={"v": 1})
        msg.channel = "q7"
        decoded = decode_message(encode_message(msg))
        assert decoded.channel == "q7"
        # Untagged messages stay byte-identical to the pre-channel codec.
        plain = Message(src="P0", dst="P1", kind="x.t", payload={"v": 1})
        assert b'"ch"' not in encode_message(plain)

    def test_reply_and_forward_preserve_channel(self):
        msg = Message(src="P0", dst="P1", kind="x.req", payload={})
        msg.channel = "q3"
        assert msg.reply("x.resp", {}).channel == "q3"
        assert msg.forwarded("P2").channel == "q3"


class TestPerChannelFailureDiagnosis:
    def _resilient_mux(self, victim: str):
        faults = FaultPlan(rng=DeterministicRng(b"mux-chaos"))
        faults.crash(victim)
        net = SimNetwork(resilience=RetryPolicy(), faults=faults)
        return net, ChannelMux(net)

    def test_failed_links_bucketed_by_channel(self):
        net, mux = self._resilient_mux("A1")
        a, b = mux.channel("qa"), mux.channel("qb")
        # Channel A talks to the crashed node; channel B is healthy.
        for node in ("A0", "A1"):
            a.register(node, collector([]))
        seen_b: list = []
        for node in ("B0", "B1"):
            b.register(node, collector(seen_b))
        a.send(Message(src="A0", dst="A1", kind="x.doomed", payload={}))
        b.send(Message(src="B0", dst="B1", kind="x.fine", payload={}))
        a.run()
        assert a.failed_links == {("A0", "A1")}
        assert b.failed_links == set()
        assert len(a.dead_letters) == 1
        assert b.dead_letters == []
        assert len(seen_b) == 1

    def test_reset_failures_is_channel_scoped(self):
        net, mux = self._resilient_mux("A1")
        a, b = mux.channel("qa"), mux.channel("qb")
        for node in ("A0", "A1"):
            a.register(node, collector([]))
        for node in ("B0", "B1"):
            b.register(node, collector([]))
        a.send(Message(src="A0", dst="A1", kind="x.doomed", payload={}))
        b.send(Message(src="B0", dst="B1", kind="x.doomed2", payload={}))
        # Crash B1 too so both channels hold a diagnosis.
        net.faults.crash("B1")
        a.run()
        b.run()
        assert a.failed_links and b.failed_links
        a.reset_failures()
        assert a.failed_links == set()
        assert b.failed_links == {("B0", "B1")}  # neighbor diagnosis intact

    def test_drop_attribution_per_channel(self):
        faults = FaultPlan(rng=DeterministicRng(b"mux-drop"), drop_rate=1.0)
        net = SimNetwork(faults=faults)  # no resilience: drops are final
        mux = ChannelMux(net)
        a, b = mux.channel("qa"), mux.channel("qb")
        for node in ("P0", "P1"):
            a.register(node, collector([]))
            b.register(node, collector([]))
        a.send(Message(src="P0", dst="P1", kind="x.gone", payload={}))
        a.run()
        assert a.stats.dropped == 1
        assert b.stats.dropped == 0


class TestRunLoop:
    def test_run_is_reentrant_across_channels(self):
        """A channel's run helps deliver whatever is queued ahead of its
        own traffic — here channel A's first message, whose handler sends
        again on A — and stops at *its own* quiescence, leaving A's reply
        to A's run."""
        net = SimNetwork()
        mux = ChannelMux(net)
        a, b = mux.channel("qa"), mux.channel("qb")
        seen_a: list = []

        def relay(msg, transport):
            seen_a.append(msg.kind)
            if msg.kind == "x.first":
                transport.send(
                    Message(src=msg.dst, dst=msg.src, kind="x.second", payload={})
                )

        a.register("P0", relay)
        a.register("P1", relay)
        b.register("P0", collector([]))
        b.register("P1", collector([]))
        a.send(Message(src="P0", dst="P1", kind="x.first", payload={}))
        b.send(Message(src="P1", dst="P0", kind="x.other", payload={}))
        assert b.run() == 2  # A's first message, then B's own
        assert seen_a == ["x.first"]
        assert net.channel_backlog("qa") == 1
        assert a.run() == 1
        assert seen_a == ["x.first", "x.second"]

    def test_idle_channel_returns_zero_steps(self):
        net = SimNetwork()
        mux = ChannelMux(net)
        a = mux.channel("qa")
        a.register("P0", collector([]))
        assert a.run() == 0

    def test_backlog_with_an_empty_queue_raises_instead_of_parking(self):
        """Every backlog unit is a live queue entry, so an empty queue with
        backlog left is an accounting bug: run fails loudly, never waits."""
        net = SimNetwork()
        a = ChannelMux(net).channel("qa")
        net._backlog_add("qa")
        with pytest.raises(ConfigurationError, match="backlog accounting bug"):
            a.run()

    def test_channel_drain_suspends_every_yield_every_deliveries(self, monkeypatch):
        """The channel's drain hands control back every ``YIELD_EVERY``
        deliveries; a private network's drain never suspends."""
        monkeypatch.setattr("repro.sched.channel.YIELD_EVERY", 3)

        def loaded(transport):
            transport.register("P0", collector([]))
            transport.register("P1", collector([]))
            for _ in range(10):
                transport.send(Message(src="P0", dst="P1", kind="x.d", payload={}))
            return transport

        def suspensions(coro):
            count = 0
            while True:
                try:
                    coro.send(None)
                except StopIteration as done:
                    return count, done.value
                count += 1

        channel = loaded(ChannelMux(SimNetwork()).channel("qa"))
        assert suspensions(channel.drain()) == (3, 10)
        assert suspensions(loaded(SimNetwork()).drain()) == (0, 10)

    def test_max_steps_guard(self):
        net = SimNetwork()
        mux = ChannelMux(net)
        a = mux.channel("qa")

        def ping_pong(msg, transport):
            transport.send(
                Message(src=msg.dst, dst=msg.src, kind="x.echo", payload={})
            )

        a.register("P0", ping_pong)
        a.register("P1", ping_pong)
        a.send(Message(src="P0", dst="P1", kind="x.echo", payload={}))
        with pytest.raises(ConfigurationError):
            a.run(max_steps=10)

"""At-least-once delivery over the simulated network.

With a RetryPolicy installed, SimNetwork acknowledges every delivery,
retransmits on ack timeout with exponential backoff in virtual time, and
deduplicates at the receiver — so probabilistic loss, duplication and
corruption are absorbed below the protocol layer, and only *persistent*
failures surface (as ``failed_links``, never as an exception or a hang).
"""

import pytest

from repro.crypto.rng import DeterministicRng
from repro.errors import DeadlineExceededError, NodeUnreachableError
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.simnet import ACK_KIND, SimNetwork
from repro.resilience import Deadline, RetryPolicy


def reliable_net(faults: FaultPlan | None = None, **kwargs) -> SimNetwork:
    return SimNetwork(resilience=RetryPolicy(**kwargs), faults=faults)


def collector(inbox: list):
    def handle(msg: Message, _net) -> None:
        inbox.append(msg)

    return handle


class TestExactlyOnceDispatch:
    def test_clean_delivery_unchanged(self):
        inbox: list = []
        net = reliable_net()
        net.register("A", collector([]))
        net.register("B", collector(inbox))
        net.send(Message(src="A", dst="B", kind="ping", payload={"x": 1}))
        net.run()
        assert [m.payload for m in inbox] == [{"x": 1}]
        assert net.failed_links == set()

    def test_full_duplication_dispatches_once(self):
        """duplicate_rate=1.0 doubles every frame; the handler still runs
        exactly once per logical message (the ISSUE's dedup satellite)."""
        inbox: list = []
        net = reliable_net(
            FaultPlan(duplicate_rate=1.0, rng=DeterministicRng(b"dup"))
        )
        net.register("A", collector([]))
        net.register("B", collector(inbox))
        for i in range(10):
            net.send(Message(src="A", dst="B", kind="n", payload={"i": i}))
        net.run()
        assert [m.payload["i"] for m in inbox] == list(range(10))
        assert net.resilience_stats["duplicates_dropped"] >= 10

    def test_loss_is_repaired_or_attributed(self):
        """Under heavy loss every message is either delivered (retries) or
        lands in dead_letters with its link in failed_links — never lost
        silently.  (An undelivered message can even be one whose *acks*
        were all dropped; at-least-once, not exactly-once, is the promise
        at this layer — the dedup window upgrades dispatch to once.)"""
        inbox: list = []
        net = reliable_net(
            FaultPlan(drop_rate=0.4, rng=DeterministicRng(b"loss"))
        )
        net.register("A", collector([]))
        net.register("B", collector(inbox))
        for i in range(20):
            net.send(Message(src="A", dst="B", kind="n", payload={"i": i}))
        net.run()
        delivered = {m.payload["i"] for m in inbox}
        attributed = {m.payload["i"] for m in net.dead_letters}
        assert delivered | attributed == set(range(20))
        assert net.resilience_stats["retries"] > 0
        if delivered != set(range(20)):
            assert ("A", "B") in net.failed_links

    def test_modest_loss_fully_repaired(self):
        """At the chaos-matrix budget (drop_rate 0.2) the default policy
        delivers everything."""
        inbox: list = []
        net = reliable_net(
            FaultPlan(drop_rate=0.2, rng=DeterministicRng(b"modest"))
        )
        net.register("A", collector([]))
        net.register("B", collector(inbox))
        for i in range(20):
            net.send(Message(src="A", dst="B", kind="n", payload={"i": i}))
        net.run()
        assert sorted(m.payload["i"] for m in inbox) == list(range(20))
        assert net.resilience_stats["retries"] > 0

    def test_corruption_is_treated_as_loss_and_repaired(self):
        inbox: list = []
        net = reliable_net(
            FaultPlan(corrupt_rate=0.5, rng=DeterministicRng(b"corrupt"))
        )
        net.register("A", collector([]))
        net.register("B", collector(inbox))
        for i in range(10):
            net.send(Message(src="A", dst="B", kind="n", payload={"i": i}))
        net.run()
        assert sorted(m.payload["i"] for m in inbox) == list(range(10))
        assert net.resilience_stats["corrupt_dropped"] > 0

    def test_retries_preserve_message_id(self):
        seen_ids: list = []
        net = reliable_net(
            FaultPlan(drop_rate=0.5, rng=DeterministicRng(b"ids"))
        )
        net.register("A", collector([]))
        net.register(
            "B", lambda msg, _net: seen_ids.append(msg.msg_id)
        )
        net.send(Message(src="A", dst="B", kind="n", payload={}))
        net.run()
        assert len(set(seen_ids)) == len(seen_ids)  # dedup upheld


class TestPersistentFailure:
    def test_partition_exhausts_into_failed_links(self):
        """A partitioned link never raises mid-run: the retry budget is
        spent, then the link lands in failed_links / dead_letters."""
        faults = FaultPlan()
        faults.partition("A", "B")
        net = reliable_net(faults)
        net.register("A", collector([]))
        net.register("B", collector([]))
        net.send(Message(src="A", dst="B", kind="n", payload={"i": 1}))
        net.run()
        assert ("A", "B") in net.failed_links
        assert len(net.dead_letters) == 1
        assert net.resilience_stats["delivery_failed"] == 1

    def test_reset_failures_clears_the_ledger(self):
        faults = FaultPlan()
        faults.partition("A", "B")
        net = reliable_net(faults)
        net.register("A", collector([]))
        net.register("B", collector([]))
        net.send(Message(src="A", dst="B", kind="n", payload={}))
        net.run()
        assert net.failed_links
        net.reset_failures()
        assert net.failed_links == set()
        # The dead letters are the network's whole-life record (what
        # /healthz reads after the last failover launch reset the links).
        assert [(m.src, m.dst) for m in net.dead_letters] == [("A", "B")]

    def test_unknown_destination_still_loud(self):
        net = reliable_net()
        net.register("A", collector([]))
        with pytest.raises(NodeUnreachableError):
            net.send(Message(src="A", dst="ghost", kind="n", payload={}))

    def test_expired_deadline_aborts_the_drain(self):
        faults = FaultPlan()
        faults.partition("A", "B")
        net = reliable_net(faults)
        net.register("A", collector([]))
        net.register("B", collector([]))
        net.send(Message(src="A", dst="B", kind="n", payload={}))
        with pytest.raises(DeadlineExceededError):
            net.run(deadline=Deadline.after(0.0))


class TestLegacyModeUntouched:
    def test_no_policy_means_no_acks_or_ids(self):
        inbox: list = []
        net = SimNetwork()
        net.register("A", collector([]))
        net.register("B", collector(inbox))
        net.send(Message(src="A", dst="B", kind="n", payload={}))
        net.run()
        assert inbox[0].msg_id is None
        assert all(m.kind != ACK_KIND for m in inbox)
        assert net.resilience_stats["acks"] == 0

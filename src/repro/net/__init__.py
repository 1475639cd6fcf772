"""Network substrate: the simulated event-driven fabric, codec and counters.

Protocols in :mod:`repro.smc`, :mod:`repro.logstore` and :mod:`repro.cluster`
are written against the minimal contract shared by every transport:

* ``transport.send(Message(...))`` delivers asynchronously;
* each node owns a handler ``(Message, transport) -> None``;
* ``transport.stats`` counts messages and bytes.

:class:`~repro.net.simnet.SimNetwork` adds a deterministic virtual clock and
fault injection; every sync call and every scheduled query gets one of its
own, so a party's view holds its own query's frames and nothing else.
:class:`~repro.net.tcp.TcpNode` runs the same byte-identical frames over
localhost sockets, every socket of a mesh on one :mod:`selectors` loop
(``docs/concurrency.md``).
"""

from repro.net.codec import (
    decode_frames,
    decode_message,
    encode_frame,
    encode_message,
    encoded_size,
)
from repro.net.faults import FaultDecision, FaultPlan, TamperRule
from repro.net.message import Message, NodeId
from repro.net.simnet import LinkModel, SimNetwork
from repro.net.stats import CostReport, CryptoOpCounter, NetworkStats
from repro.net.topology import latency_ring, next_on_ring

__all__ = [
    "Message",
    "NodeId",
    "SimNetwork",
    "LinkModel",
    "NetworkStats",
    "CryptoOpCounter",
    "CostReport",
    "FaultPlan",
    "FaultDecision",
    "TamperRule",
    "encode_message",
    "decode_message",
    "encode_frame",
    "decode_frames",
    "encoded_size",
    "next_on_ring",
    "latency_ring",
]

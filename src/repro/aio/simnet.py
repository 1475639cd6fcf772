"""Second dotted names of the network and channel, kept for the benchmark's tracer."""

from repro.net.simnet import SimNetwork
from repro.sched.channel import Channel

# benchmarks/e2e/layers.py:131-132 traces
# ``repro.aio.simnet:AsyncSimNetwork.drain`` / ``AsyncChannel.drain``;
# this module goes when ROADMAP item 1(b) lets the benchmark drop those
# two rows.
AsyncSimNetwork = SimNetwork
AsyncChannel = Channel

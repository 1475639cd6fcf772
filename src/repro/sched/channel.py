# Every scheduled query runs over a SimNetwork of its own, so there is no
# channel type.  benchmarks/e2e/layers.py:130,132 pins
# ``repro.sched.channel:Channel.run`` and ``AsyncChannel.drain``; this alias
# goes when ROADMAP item 1(b) lets the benchmark drop those rows.
from repro.net.simnet import SimNetwork

Channel = SimNetwork

"""The scheduler's second dotted name, kept for the benchmark's tracer."""

from repro.sched.scheduler import QueryScheduler

# benchmarks/e2e/layers.py:134-135 traces
# ``repro.aio.scheduler:AsyncQueryScheduler.submit/.gather``; this module
# goes when ROADMAP item 1(b) lets the benchmark drop those two rows.
AsyncQueryScheduler = QueryScheduler

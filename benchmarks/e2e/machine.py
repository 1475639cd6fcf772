"""Machine-speed gauge: report timings at a reference CPU speed.

The sandbox this benchmark runs in shares its cores: identical CPU-bound work
takes 1.0x to 1.9x as long from one second to the next (measured with the
kernel below), in episodes of seconds to minutes.  In a noisy episode raw
wall-clock medians of a 10 s run spread 20 - 28 % between runs, which is more
than any regression bound they could be checked against.

So the harness keeps measuring the machine while it measures the system: a
fixed kernel — four ``pow`` calls on 1024-bit operands, the primitive this
system's cost is made of, and nothing from ``src/`` — is timed before and
after operations, at most every 100 ms, outside every timed region.  A
phase's *speed factor* is :data:`REFERENCE_S` over the mean of the phase's
readings; reported timings are wall-clock seconds multiplied by it (and
rates divided by it), i.e. seconds on a machine that runs the kernel in
:data:`REFERENCE_S`.  The raw wall-clock values and the factor are printed
next to them.

The kernel is timed in *thread CPU time*, not wall-clock: a thread or worker
process that ``src/`` leaves running between operations can take the
interpreter lock or a core away from the kernel, but not make its
instructions slower, so the system under test cannot talk its own cost out
of the result.  What the shared host does to this box is slower execution,
not descheduling — the kernel's wall-clock and CPU time agree within 0.1 % —
and that is what the factor removes.  It assumes the measured time scales
with CPU speed; the share that does not (WAL ``fsync`` waits, 1.2 % of an
``ingest_recover`` round by ``store.wal_sync_s``) is over-corrected by that
share of ``1 - factor``.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: The unit: CPU seconds the kernel takes on the reference machine.  Only
#: ratios between runs matter, so any constant would do; this one is what the
#: box the baseline was taken on (2.1 GHz Xeon, CPython 3.11) needs when idle.
REFERENCE_S = 0.0137
MIN_INTERVAL_S = 0.1

_MODULUS = (1 << 1024) - 105
_BASE = int.from_bytes(hashlib.sha512(b"e2e kernel base").digest() * 2, "big")
_EXPONENT = int.from_bytes(hashlib.sha512(b"e2e kernel exponent").digest() * 2, "big")


class MachineSpeed:
    """Kernel timings taken during one phase of a run."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        #: Wall-clock seconds the readings themselves took.
        self.spent_s = 0.0
        self._last = 0.0

    def read(self, force: bool = False) -> None:
        """Time the kernel now, unless it was timed very recently."""
        begin = time.perf_counter()
        if not force and begin - self._last < MIN_INTERVAL_S:
            return
        start = time.thread_time()
        for _ in range(4):
            pow(_BASE, _EXPONENT, _MODULUS)
        self.readings.append(time.thread_time() - start)
        self._last = time.perf_counter()
        self.spent_s += self._last - begin

    def factor(self) -> float:
        """Multiply a duration of this phase by this to get reference seconds."""
        return REFERENCE_S / statistics.mean(self.readings)

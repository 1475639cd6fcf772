"""Global log sequence number allocation (paper §2 eq. 5, §4).

"glsn is a monotonically increasing integer that uniquely defines a log
record" and "the glsn is uniquely assigned by [the] DLA cluster".

* :class:`GlsnAllocator` — a single authority handing out consecutive
  values, the simple case for one coordinator node.
* :class:`GlsnBlock` — a leased range of glsns; the networked cluster
  allocator (:mod:`repro.logstore.glsn_service`) hands these out so each
  DLA node allocates locally within its lease.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, LogStoreError

__all__ = ["GlsnAllocator", "GlsnBlock"]

# The paper's Table 1 starts its example glsns at 0x139aef78; using the same
# origin makes the regenerated tables byte-identical.
PAPER_GLSN_START = 0x139AEF78


class GlsnAllocator:
    """Monotone unique allocator owned by a single authority."""

    def __init__(self, start: int = PAPER_GLSN_START) -> None:
        if start < 0:
            raise ConfigurationError("glsn start must be non-negative")
        self._next = start

    def allocate(self) -> int:
        value = self._next
        self._next += 1
        return value

    def allocate_many(self, count: int) -> list[int]:
        if count < 0:
            raise ConfigurationError("cannot allocate a negative count")
        values = list(range(self._next, self._next + count))
        self._next += count
        return values

    @property
    def next_value(self) -> int:
        return self._next


@dataclass
class GlsnBlock:
    """A leased half-open range ``[start, end)`` of glsns."""

    start: int
    end: int
    cursor: int = -1

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError("empty glsn block")
        if self.cursor < 0:
            self.cursor = self.start

    @property
    def remaining(self) -> int:
        return self.end - self.cursor

    def take(self) -> int:
        if self.cursor >= self.end:
            raise LogStoreError("glsn block exhausted")
        value = self.cursor
        self.cursor += 1
        return value

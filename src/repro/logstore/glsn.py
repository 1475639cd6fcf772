"""Global log sequence number allocation (paper §2 eq. 5, §4).

"glsn is a monotonically increasing integer that uniquely defines a log
record" and "the glsn is uniquely assigned by [the] DLA cluster".

:class:`GlsnAllocator` is that authority: one counter handing out
consecutive values, owned by the cluster's store (a durable store's
recovery restarts it past every recovered glsn).
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["GlsnAllocator"]

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

    @property
    def next_value(self) -> int:
        return self._next

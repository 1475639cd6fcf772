"""At-least-once delivery support: message ids and receiver-side dedup.

Retrying a send composes safely with the network's own duplication
(``FaultPlan.duplicate_rate``) only if receivers are *idempotent*.  The
transports achieve that with two pieces:

* every reliable message carries a ``msg_id`` unique per sender
  (``"<node>#<n>"``), assigned once and preserved across retransmissions;
* each receiver keeps a :class:`DedupWindow` per incoming link and drops
  (but re-acknowledges) any id it has already dispatched.

The window is bounded: ids older than ``capacity`` deliveries on one link
are forgotten, which is safe as long as the retry budget keeps
retransmissions of one message closer together than ``capacity``
unrelated deliveries — true by construction here, since a sender stops
retrying after :attr:`~repro.resilience.RetryPolicy.max_attempts`.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

from repro.errors import ConfigurationError

__all__ = ["DedupWindow", "MessageIdAllocator"]


class MessageIdAllocator:
    """Per-sender monotonic message ids (``"P0#17"``)."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self._counter = itertools.count(1)

    def next_id(self) -> str:
        return f"{self.node_id}#{next(self._counter)}"


class DedupWindow:
    """Bounded per-link memory of already-delivered message ids.

    ``seen(link, msg_id)`` records the id and returns whether it was
    already present — the caller drops duplicates and (for reliable
    links) re-acknowledges them so a lost ack does not strand the sender.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigurationError("dedup window capacity must be positive")
        self.capacity = capacity
        self._links: dict[tuple[str, str], OrderedDict[str, None]] = {}
        self.duplicates = 0

    def seen(self, link: tuple[str, str], msg_id: str) -> bool:
        window = self._links.setdefault(link, OrderedDict())
        if msg_id in window:
            window.move_to_end(msg_id)
            self.duplicates += 1
            return True
        window[msg_id] = None
        if len(window) > self.capacity:
            window.popitem(last=False)
        return False

"""Leakage ledger: makes "relaxed" disclosure explicit and testable.

Definition 1 of the paper *permits* disclosure of secondary information
about private inputs (set sizes, counts, blinded gaps) while forbidding
disclosure of the data itself.  Classical MPC papers prove zero leakage;
a relaxed protocol must instead *state* its leakage.  Every protocol in
:mod:`repro.smc` writes each secondary disclosure into a
:class:`LeakageLedger`, and the test suite asserts both directions:

* everything the protocol reveals is recorded (no silent leaks), and
* nothing recorded is a *primary* secret (the ledger refuses entries
  flagged as primary).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

from repro.errors import SmcError

__all__ = ["LeakageEvent", "LeakageLedger"]


@dataclass(frozen=True)
class LeakageEvent:
    """One secondary disclosure.

    Attributes
    ----------
    protocol:
        Name of the protocol leaking (``"secure_set_intersection"``...).
    observer:
        Who learns the information (node id, or ``"*"`` for all parties).
    category:
        Machine-readable kind: ``"set_size"``, ``"position_linkage"``,
        ``"scaled_gap"``, ``"result_cardinality"``, ``"order_statistics"``.
    detail:
        Human-readable description of exactly what leaks.
    """

    protocol: str
    observer: str
    category: str
    detail: str


_PRIMARY_CATEGORIES = frozenset({"plaintext", "raw_value", "private_set_element"})


class LeakageLedger:
    """Append-only record of secondary disclosures in a protocol run.

    When constructed with a tracer, every recorded disclosure is also
    emitted as a ``"leakage"`` span event on whatever span is open — so a
    trace carries the full disclosure story inline with the cost story.

    Ledgers are thread-safe, and crucially :meth:`extend` appends a whole
    group of events under one lock hold: the service gives each query a
    private ledger (within-query order is the protocol's deterministic
    causal order) and merges it into the service-wide ledger when the
    query ends, so the global ledger stays grouped per query instead of
    interleaving entries from queries running side by side.
    """

    def __init__(self, tracer=None) -> None:
        self._events: list[LeakageEvent] = []
        self._tracer = tracer
        self._lock = threading.Lock()

    def record(self, protocol: str, observer: str, category: str, detail: str) -> None:
        """Record one disclosure.

        Raises
        ------
        SmcError
            If the category denotes primary data — a relaxed protocol must
            never disclose primary secrets, so attempting to log one is a
            protocol bug surfaced immediately.
        """
        if category in _PRIMARY_CATEGORIES:
            raise SmcError(
                f"protocol {protocol!r} attempted to disclose primary data "
                f"({category}) to {observer!r}"
            )
        with self._lock:
            self._events.append(LeakageEvent(protocol, observer, category, detail))
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.add_event(
                "leakage",
                {
                    "protocol": protocol,
                    "observer": observer,
                    "category": category,
                    "detail": detail,
                },
            )

    def extend(self, events: Iterable[LeakageEvent]) -> None:
        """Append a group of events atomically (one lock hold).

        Used to merge a completed query's private ledger into a shared
        one: the group lands contiguous and in order, never interleaved
        with another query's merge.  Primary-category screening applies
        to every event, same as :meth:`record`.
        """
        batch = list(events)
        for event in batch:
            if event.category in _PRIMARY_CATEGORIES:
                raise SmcError(
                    f"protocol {event.protocol!r} attempted to disclose primary "
                    f"data ({event.category}) to {event.observer!r}"
                )
        with self._lock:
            self._events.extend(batch)

    @property
    def events(self) -> list[LeakageEvent]:
        with self._lock:
            return list(self._events)

    def categories(self) -> set[str]:
        return {e.category for e in self.events}

    def count(self, category: str | None = None) -> int:
        if category is None:
            with self._lock:
                return len(self._events)
        return sum(1 for e in self.events if e.category == category)

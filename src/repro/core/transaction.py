"""Transaction model (paper §2, eq. 1-5).

``T = {R_T, E_T, L_T, tsn, ttn}``: a transaction is a specification/rule
set ``R_T``, an event set ``E_T`` of atomic events ``e_j^(i)`` executed by
application nodes ``u_i``, the log records ``L_T`` those events produce, a
unique transaction sequence number ``tsn`` and a type number ``ttn``.

This module models events and transactions; the boolean rule set ``R_T``
lives in :mod:`repro.core.rules`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["AtomicEvent", "Transaction", "TransactionType"]


@dataclass(frozen=True)
class AtomicEvent:
    """One atomic event ``e_j^(i)(T)`` executed by node ``executor``.

    ``attributes`` become the log record's attribute values when the event
    is logged (plus the transaction bookkeeping the logger adds).
    """

    name: str
    executor: str               # the application node u_i
    attributes: dict = field(default_factory=dict)

    def log_values(self, tsn: str, ttn: str, step: int) -> dict:
        """The record values this event contributes (eq. 5's l_k set)."""
        values = dict(self.attributes)
        values.setdefault("Tid", tsn)
        values.setdefault("id", self.executor)
        values["EID"] = f"{self.name}#{step}"
        return values


@dataclass(frozen=True)
class TransactionType:
    """A transaction *type* (``ttn``): its expected event shape.

    ``expected_events`` names the atomic events a well-formed instance
    must contain, in order — the basis for atomicity and order rules.
    """

    ttn: str
    expected_events: tuple[str, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.expected_events:
            raise ConfigurationError("a transaction type needs expected events")


@dataclass
class Transaction:
    """One transaction instance: ``tsn`` plus its executed events."""

    tsn: str
    ttn: str
    events: list[AtomicEvent] = field(default_factory=list)

    def add_event(self, event: AtomicEvent) -> None:
        self.events.append(event)

    @property
    def executors(self) -> list[str]:
        return sorted({e.executor for e in self.events})

    def event_names(self) -> list[str]:
        return [e.name for e in self.events]

    def conforms_to(self, ttype: TransactionType) -> bool:
        """Shape check: does this instance contain exactly the expected
        events in order?  (The *confidential* version of this check is what
        the audit rules perform over the DLA cluster.)"""
        return self.ttn == ttype.ttn and tuple(self.event_names()) == ttype.expected_events

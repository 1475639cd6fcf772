"""Application-subsystem node ``u_j`` (paper Figure 2, left side).

An :class:`ApplicationNode` is one operational information system: it
executes transaction events, turns them into log records and submits the
fragments to the DLA subsystem through the service's write path, keeping
its write receipts (glsn + integrity anchor) for later verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.service import ConfidentialAuditingService
from repro.crypto.tickets import Ticket
from repro.logstore.store import WriteReceipt

__all__ = ["ApplicationNode"]


@dataclass
class ApplicationNode:
    """One user node with its ticket and logging history."""

    user_id: str
    service: ConfidentialAuditingService
    ticket: Ticket
    receipts: list[WriteReceipt] = field(default_factory=list)

    @classmethod
    def register(
        cls, user_id: str, service: ConfidentialAuditingService
    ) -> "ApplicationNode":
        """Register with the ticket authority and return the node."""
        return cls(
            user_id=user_id,
            service=service,
            ticket=service.register_user(user_id),
        )

    def log_values(self, values: dict) -> WriteReceipt:
        """Log one raw record (the ``id`` attribute defaults to us)."""
        body = dict(values)
        body.setdefault("id", self.user_id)
        receipt = self.service.log_event(body, self.ticket)
        self.receipts.append(receipt)
        return receipt

    def verify_receipt(self, receipt: WriteReceipt) -> bool:
        """Check the cluster still reproduces our integrity anchor."""
        reports = self.service.check_integrity(distributed=False)
        for report in reports:
            if report.glsn == receipt.glsn:
                return report.ok and report.expected == receipt.accumulator
        return False

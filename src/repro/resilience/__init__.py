"""Fault-tolerant protocol execution for the DLA stack.

This package supplies the three layers of the failure model documented in
``docs/resilience.md``:

* :class:`RetryPolicy` / :class:`Deadline` — bounded retries with
  deterministic jittered backoff, and a wall-clock budget that propagates
  from :meth:`ConfidentialAuditingService.audit` down into every SMC
  round;
* :class:`MessageIdAllocator` / :class:`DedupWindow` — at-least-once
  delivery with idempotent receive, so retransmissions compose safely
  with network-level duplication;
* :func:`supervise_ring` — ring failover: diagnose a dead or partitioned
  hop, re-route around it, or degrade gracefully with an explicit
  skipped-node list;
* :func:`recovery_audit` — the post-restart §4.1 integrity sweep the
  durable backend runs at the end of every crash recovery.
"""

from repro.resilience.delivery import DedupWindow, MessageIdAllocator
from repro.resilience.failover import (
    FailoverOutcome,
    pick_coordinator,
    ring_avoiding,
    standby_id,
    supervise_ring,
)
from repro.resilience.policy import Deadline, RetryPolicy
from repro.resilience.recovery import RecoveryAuditReport, recovery_audit

__all__ = [
    "Deadline",
    "DedupWindow",
    "FailoverOutcome",
    "MessageIdAllocator",
    "RecoveryAuditReport",
    "RetryPolicy",
    "recovery_audit",
    "pick_coordinator",
    "ring_avoiding",
    "standby_id",
    "supervise_ring",
]

"""Exception hierarchy for the DLA reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
caller that embeds the library can catch one base class.  Subsystems define
narrower classes below; modules raise the most specific class that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyMismatchError(CryptoError):
    """Decryption attempted with a key that does not match the ciphertext."""


class ParameterError(CryptoError):
    """Cryptographic domain parameters are invalid (bad prime, modulus...)."""


class SignatureError(CryptoError):
    """A signature failed to verify."""


class SecretSharingError(CryptoError):
    """Secret-share generation or reconstruction failed."""


class ThresholdError(SecretSharingError):
    """Not enough shares (fewer than the threshold k) to reconstruct."""


class NetworkError(ReproError):
    """Base class for transport/simulated-network failures."""


class NodeUnreachableError(NetworkError):
    """A message was addressed to a node that is not registered or is down."""


class PartitionError(NetworkError):
    """Delivery failed because the source and target are partitioned."""


class CodecError(NetworkError):
    """A message could not be encoded or decoded."""


class TransportClosedError(NetworkError):
    """An operation was attempted on a closed transport."""


class TransportTimeout(NetworkError):
    """A transport operation (connect, receive) exceeded its time budget."""


class DeadlineExceededError(NetworkError):
    """A propagated :class:`~repro.resilience.Deadline` expired mid-operation.

    Carries ``stage`` naming where the budget ran out, so callers can
    attribute the failure (planner, a specific SMC round, a transport
    wait...).
    """

    def __init__(self, message: str, stage: str = "") -> None:
        super().__init__(message)
        self.stage = stage


class DeliveryFailedError(NetworkError):
    """At-least-once delivery exhausted its retry budget for a link.

    ``links`` lists the ``(src, dst)`` pairs that could not be reached;
    the ring supervisors use it to plan failover.
    """

    def __init__(self, message: str, links: tuple | None = None) -> None:
        super().__init__(message)
        self.links = tuple(links or ())


class SmcError(ReproError):
    """Base class for secure-multiparty-computation protocol failures."""


class ProtocolAbortError(SmcError):
    """A participant aborted the protocol (malformed round, timeout...)."""


class RingFailoverError(ProtocolAbortError):
    """Ring failover could not restore a quorum able to finish the round.

    ``skipped`` names the nodes excluded before the run was abandoned and
    ``failed_links`` the directed links whose delivery retries exhausted —
    a typed, attributed account of *why* the protocol gave up.
    """

    def __init__(
        self,
        message: str,
        skipped: tuple[str, ...] = (),
        failed_links: tuple | None = None,
    ) -> None:
        super().__init__(message)
        self.skipped = tuple(skipped)
        self.failed_links = tuple(failed_links or ())


class UnauthorizedObserverError(SmcError):
    """A node that is not an authorized observer requested the SMC result."""


class LogStoreError(ReproError):
    """Base class for distributed log-store failures."""


class SchemaError(LogStoreError):
    """A record does not match the global schema, or the schema is invalid."""


class FragmentationError(LogStoreError):
    """The fragment assignment does not cover the schema or overlaps badly."""


class AccessDeniedError(LogStoreError):
    """A ticket does not authorize the attempted read/write/delete."""


class TicketError(AccessDeniedError):
    """A ticket is malformed, expired, or failed authentication."""


class IntegrityError(LogStoreError):
    """Accumulator cross-check detected fragment tampering."""


class UnknownGlsnError(LogStoreError):
    """A glsn was referenced that the store has never assigned."""


class AuditError(ReproError):
    """Base class for audit-query failures."""


class QuerySyntaxError(AuditError):
    """The auditing criterion failed to lex or parse."""


class UnknownAttributeError(AuditError):
    """A predicate references an attribute absent from the global schema."""


class PlanningError(AuditError):
    """No DLA node (or node set) can evaluate a subquery."""


class SchedulerError(AuditError):
    """Base class for concurrent query-scheduler failures."""


class SchedulerShutdownError(SchedulerError):
    """The scheduler is shut down and no longer admits queries."""


class ClusterError(ReproError):
    """Base class for DLA cluster-membership failures."""


class EvidenceError(ClusterError):
    """An evidence piece failed verification or was forged."""


class MembershipError(ClusterError):
    """Join handshake violated the protocol (stale authority, bad token...)."""


class AgreementError(ClusterError):
    """Distributed majority agreement could not be reached."""

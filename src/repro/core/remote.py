"""Networked auditing front door (Figure 2's "auditing result of T" path).

The service facade is an in-process object; a real deployment has the
auditor on a different machine.  This module provides the wire layer:

* :class:`DlaQueryFrontdoor` — a handler installed on one DLA node; it
  accepts query/aggregate requests, drives the confidential execution,
  runs the agreement + threshold-signing release path, and answers;
* :class:`RemoteAuditorClient` — the auditor side: sends requests, waits
  for (and verifies) signed responses.

Both sides speak plain :class:`~repro.net.message.Message` frames, so the
pair runs on the simulated network and over TCP alike (integration tests
cover both).  Requests carry a client-chosen ``request_id``; responses
echo it, so one client can pipeline queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.service import AuditReport, ConfidentialAuditingService
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import AuditError, ProtocolAbortError, ReproError
from repro.net.message import Message

__all__ = ["DlaQueryFrontdoor", "RemoteAuditorClient"]


class DlaQueryFrontdoor:
    """Server side: one DLA node exposing the auditing API on the wire.

    Message kinds handled:

    * ``audit.query``      ``{request_id, criterion}`` → signed result;
    * ``audit.aggregate``  ``{request_id, op, attribute, criterion?}``;
    * errors are answered with ``audit.error {request_id, error}`` rather
      than crashing the node.
    """

    def __init__(self, node_id: str, service: ConfidentialAuditingService) -> None:
        self.node_id = node_id
        self.service = service
        self.served = 0

    def handle(self, msg: Message, transport) -> None:
        if msg.kind == "audit.query":
            self._serve_query(msg, transport)
        elif msg.kind == "audit.aggregate":
            self._serve_aggregate(msg, transport)
        else:
            raise ProtocolAbortError(f"frontdoor got unexpected {msg.kind!r}")

    def _serve_query(self, msg: Message, transport) -> None:
        request_id = _request_id(msg)
        try:
            report = self.service.audited_query(_text_field(msg, "criterion"))
        except ReproError as exc:  # surfaced to the client; bugs propagate
            self._answer_error(msg, transport, request_id, exc)
            return
        self.served += 1
        transport.send(
            Message(
                src=self.node_id,
                dst=msg.src,
                kind="audit.result",
                payload={
                    "request_id": request_id,
                    "criterion": report.criterion,
                    "glsns": list(report.glsns),
                    "digest": report.digest,
                    "sig_c": report.signature.c,
                    "sig_s": report.signature.s,
                    "cluster_key": report.cluster_public_key,
                },
            )
        )

    def _serve_aggregate(self, msg: Message, transport) -> None:
        request_id = _request_id(msg)
        try:
            result = self.service.aggregate(
                _text_field(msg, "op"),
                _text_field(msg, "attribute"),
                _text_field(msg, "criterion", optional=True),
            )
        except ReproError as exc:
            self._answer_error(msg, transport, request_id, exc)
            return
        self.served += 1
        transport.send(
            Message(
                src=self.node_id,
                dst=msg.src,
                kind="audit.aggregate_result",
                payload={
                    "request_id": request_id,
                    "op": result.op,
                    "attribute": result.attribute,
                    "value": result.value,
                    "matched": result.matched,
                },
            )
        )

    def _answer_error(self, msg, transport, request_id, exc) -> None:
        transport.send(
            Message(
                src=self.node_id,
                dst=msg.src,
                kind="audit.error",
                payload={"request_id": request_id, "error": str(exc)},
            )
        )


def _request_id(msg: Message):
    """The id to echo; ``None`` when the client sent none."""
    return msg.payload.get("request_id") if isinstance(msg.payload, dict) else None


def _text_field(msg: Message, name: str, optional: bool = False) -> str | None:
    """One string field of a request; a missing or mistyped one is an
    :class:`AuditError` answered to the client, never a crash of the node."""
    value = msg.payload.get(name) if isinstance(msg.payload, dict) else None
    if value is None and optional:
        return None
    if not isinstance(value, str):
        raise AuditError(
            f"{msg.kind} field {name!r} must be a string, "
            f"got {type(value).__name__}"
        )
    return value


@dataclass
class RemoteAuditorClient:
    """Client side: a (possibly off-cluster) auditor principal.

    The client holds the cluster public key out-of-band and refuses any
    response whose threshold signature does not verify — the wire cannot
    weaken the release guarantee.
    """

    client_id: str
    frontdoor_id: str
    service: ConfidentialAuditingService  # used only for verification params
    responses: dict[str, dict] = field(default_factory=dict)
    _counter: int = 0

    def next_request_id(self) -> str:
        self._counter += 1
        return f"{self.client_id}-req-{self._counter}"

    def send_query(self, transport, criterion: str) -> str:
        request_id = self.next_request_id()
        transport.send(
            Message(
                src=self.client_id,
                dst=self.frontdoor_id,
                kind="audit.query",
                payload={"request_id": request_id, "criterion": criterion},
            )
        )
        return request_id

    def send_aggregate(
        self, transport, op: str, attribute: str, criterion: str | None = None
    ) -> str:
        request_id = self.next_request_id()
        transport.send(
            Message(
                src=self.client_id,
                dst=self.frontdoor_id,
                kind="audit.aggregate",
                payload={
                    "request_id": request_id,
                    "op": op,
                    "attribute": attribute,
                    "criterion": criterion,
                },
            )
        )
        return request_id

    def handle(self, msg: Message, transport) -> None:
        if msg.kind == "audit.result":
            payload = msg.payload
            report = AuditReport(
                criterion=payload["criterion"],
                glsns=tuple(payload["glsns"]),
                digest=payload["digest"],
                signature=SchnorrSignature(c=payload["sig_c"], s=payload["sig_s"]),
                cluster_public_key=payload["cluster_key"],
            )
            if not self.service.verify_report(report):
                raise AuditError(
                    "remote result failed threshold-signature verification"
                )
            self.responses[payload["request_id"]] = {
                "kind": "result", "report": report,
            }
        elif msg.kind == "audit.aggregate_result":
            self.responses[msg.payload["request_id"]] = {
                "kind": "aggregate", **msg.payload,
            }
        elif msg.kind == "audit.error":
            self.responses[msg.payload["request_id"]] = {
                "kind": "error", "error": msg.payload["error"],
            }
        else:
            raise ProtocolAbortError(f"client got unexpected {msg.kind!r}")

    def result(self, request_id: str) -> dict:
        try:
            return self.responses[request_id]
        except KeyError as exc:
            raise AuditError(f"no response yet for {request_id}") from exc

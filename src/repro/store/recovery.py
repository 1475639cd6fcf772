"""Crash recovery: checkpoint load + WAL replay + torn-append rollback.

:func:`open_durable_store` is the one entry point for opening a store
directory.  A fresh directory just builds a new
:class:`~repro.store.cluster.DurableDistributedLogStore`; an existing
one is recovered:

1. **Checkpoint** — ``checkpoint.seg``'s header rebuilds the plan and
   accumulator parameters; each node record goes through
   ``apply_wal_record``, as WAL records do.  A damaged checkpoint raises
   :class:`~repro.errors.LogStoreError` naming the file and byte offset.
2. **Replay** — each node's WAL is decoded in append order and applied
   idempotently (safe even when a crash left the WAL overlapping the
   checkpoint it was about to truncate).  A *torn tail* — the truncated
   or CRC-broken final record a crash leaves mid-write — ends that
   node's replay cleanly; it can only be in the node's last segment, so
   the same damage in a sealed one raises :class:`LogStoreError`.
3. **Rollback** — a glsn durable on some nodes but not all is a
   half-written append (vertical fragmentation puts every glsn on every
   node); such glsns are always a suffix of the log and are rolled back
   cluster-wide, restoring all-or-nothing append semantics.
4. **Audit** — the recovered store immediately runs the §4.1 integrity
   sweep (:func:`repro.resilience.recovery_audit`); recovery that cannot
   prove integrity is reported, not hidden.

The result is state-identical to the pre-crash store minus any torn
suffix: same fragments, same anchors, same ACL replicas, same epochs'
worth of answers to every query.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.tickets import TicketAuthority
from repro.errors import LogStoreError
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.glsn import GlsnAllocator
from repro.logstore.schema import Attribute, AttributeKind, GlobalSchema
from repro.obs.tracer import NOOP_TRACER
from repro.store.cluster import CHECKPOINT_FILE, DurableDistributedLogStore
from repro.store.config import StoreConfig
from repro.store.wal import read_records

__all__ = ["open_durable_store", "recover_store", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """What one recovery pass did, for operators and the recovery audit."""

    checkpoint_loaded: bool = False
    #: WAL records applied, summed across nodes.
    wal_records: int = 0
    #: Node ids whose WAL ended in a torn (truncated / CRC-broken) tail.
    torn_nodes: list[str] = field(default_factory=list)
    #: Half-written appends rolled back cluster-wide.
    rolled_back: list[int] = field(default_factory=list)
    #: glsns present after recovery.
    glsns: int = 0
    duration_seconds: float = 0.0
    #: Per-glsn §4.1 reports from the post-recovery audit (empty when the
    #: caller disabled it).
    audit_ok: bool | None = None
    audit_failures: list[int] = field(default_factory=list)
    detail: str = ""


def _has_state(directory: Path) -> bool:
    if (directory / CHECKPOINT_FILE).exists():
        return True
    return any(directory.glob("*/wal-*.seg"))


def open_durable_store(
    plan: FragmentPlan,
    authority: TicketAuthority,
    default_params: AccumulatorParams | Callable[[], AccumulatorParams],
    directory: str | os.PathLike,
    config: StoreConfig | None = None,
    tracer=None,
    integrity_audit: bool = True,
) -> tuple[DurableDistributedLogStore, RecoveryReport | None]:
    """Open (and if needed recover) the durable store at ``directory``.

    A directory with no prior state yields ``(store, None)``; one with a
    checkpoint and/or WAL segments is recovered and yields
    ``(store, RecoveryReport)``.  ``default_params`` seeds a *fresh*
    store only — recovery always reuses the checkpointed accumulator
    parameters, since the persisted anchors verify against nothing else.
    It may be a zero-argument callable, called only for a fresh store, so
    that a recovery never pays for generating a modulus it discards.
    """
    directory = Path(directory)
    config = config or StoreConfig()
    if not _has_state(directory):
        store = DurableDistributedLogStore(
            plan,
            authority,
            default_params() if callable(default_params) else default_params,
            directory,
            config=config,
            tracer=tracer,
        )
        return store, None
    report = recover_store(
        authority,
        directory,
        config=config,
        tracer=tracer,
        integrity_audit=integrity_audit,
    )
    return report


def recover_store(
    authority: TicketAuthority,
    directory: str | os.PathLike,
    config: StoreConfig | None = None,
    tracer=None,
    integrity_audit: bool = True,
) -> tuple[DurableDistributedLogStore, RecoveryReport]:
    """Rebuild the store at ``directory`` from checkpoint + WAL replay."""
    started = time.monotonic()
    directory = Path(directory)
    config = config or StoreConfig()
    span_tracer = tracer or NOOP_TRACER
    report = RecoveryReport()

    with span_tracer.span("store.recover", {"dir": str(directory)}):
        checkpoint_path = directory / CHECKPOINT_FILE
        if not checkpoint_path.exists():
            raise FileNotFoundError(
                f"{directory}: WAL segments present but no {CHECKPOINT_FILE}; "
                "the initial checkpoint carries the fragment plan and "
                "accumulator parameters and cannot be reconstructed"
            )
        with span_tracer.span("store.recover.load") as span:
            data = checkpoint_path.read_bytes()
            records = read_records(data, str(checkpoint_path))
            header = next(records, None)
            if not isinstance(header, dict) or header.get("op") != "header":
                raise LogStoreError(f"{checkpoint_path}: no header record at offset 0")
            report.checkpoint_loaded = True
            schema = GlobalSchema(
                [Attribute(name, AttributeKind(kind)) for name, kind in header["schema"]]
            )
            store = DurableDistributedLogStore(
                FragmentPlan(schema, header["assignment"], allow_overlap=header["allow_overlap"]),
                authority,
                AccumulatorParams(n=header["n"], x0=header["x0"]),
                directory,
                config=config,
                tracer=tracer,
                initial_checkpoint=False,
            )
            try:
                loaded = set()
                for record in records:
                    store.node_store(record["node"]).apply_wal_record(record)
                    loaded.add(record["node"])
                if loaded != set(store.stores):
                    raise LogStoreError(
                        f"{checkpoint_path}: ends at offset {len(data)} with no record "
                        f"of node(s) {sorted(set(store.stores) - loaded)}"
                    )
            except BaseException:
                store.close()
                raise
            if span_tracer.enabled:
                span.set_attributes({"records": 1 + len(loaded), "glsns": len(store.glsns)})

        with span_tracer.span("store.recover.replay") as span:
            # -- WAL replay, idempotent, tolerating per-node torn tails ---
            try:
                for node_id, node in store.stores.items():
                    replay = store.wals[node_id].replay()
                    node._replaying = True
                    try:
                        for record in replay.entries:
                            node.apply_wal_record(record)
                    finally:
                        node._replaying = False
                    report.wal_records += replay.records
                    if replay.torn_tail:
                        report.torn_nodes.append(node_id)
                        if not report.detail:
                            report.detail = replay.detail
            except BaseException:
                store.close()
                raise

            # -- torn-append rollback: a glsn missing from any node is a
            # half-written append; fragmentation puts every glsn on every
            # node, so completeness == presence everywhere. ---------------
            per_node = [set(node.glsns) for node in store.stores.values()]
            complete = set.intersection(*per_node) if per_node else set()
            incomplete = sorted(set.union(*per_node) - complete) if per_node else []
            for glsn in incomplete:
                for node in store.stores.values():
                    node.rollback_glsn(glsn)
            report.rolled_back = incomplete
            report.glsns = len(store.glsns)
            span.set_attributes({"records": report.wal_records, "glsns": report.glsns})

        # -- allocator fast-forward past every surviving glsn --------------
        glsns = store.glsns
        floor = (glsns[-1] + 1) if glsns else 0
        store.allocator = GlsnAllocator(start=max(header["next_glsn"], floor))

        # -- fold the replayed delta into a fresh checkpoint so the next
        # crash recovers from here, not from two generations back. --------
        store.checkpoint()

        if integrity_audit:
            from repro.resilience.recovery import recovery_audit

            with span_tracer.span("store.recover.audit") as span:
                audit = recovery_audit(store)
                span.set_attributes({
                    "records": sum(map(len, store.stores.values())),
                    "glsns": audit.checked,
                })
            report.audit_ok = audit.clean
            report.audit_failures = list(audit.failures)

    report.duration_seconds = time.monotonic() - started
    return store, report

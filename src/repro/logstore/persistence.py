"""Durable snapshots of the distributed log store.

DLA nodes are long-lived services; their fragment stores, ACL replicas
and integrity anchors must survive restarts.  This module serializes a
:class:`~repro.logstore.store.DistributedLogStore` (minus the live ticket
authority, which holds the secret and is restored separately) to a plain
JSON document and back.

The snapshot embeds the fragment plan and the accumulator parameters, so
a restored store verifies the same integrity anchors — a restore followed
by :class:`~repro.logstore.integrity.IntegrityChecker` is the recovery
audit (tested).

Format history:

* **v1** recorded fragments, anchors, and ACLs only.
* **v2** (current) added the combined integrity ring's chain state: a
  ``"chain"`` list per node and a cluster ``"chain_value"``.  That ring
  is retired; snapshots are written without the chain fields, and
  loading ignores them, so both versions read the same way.

Whole-store snapshots complement (not replace) the write-ahead log of
:mod:`repro.store`: a snapshot is a point-in-time O(store) copy, the WAL
is an O(delta) incremental journal — ``docs/storage.md`` discusses the
trade-offs.
"""

from __future__ import annotations

import json
from typing import Any

from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.tickets import Operation, TicketAuthority
from repro.errors import LogStoreError
from repro.logstore.access import AccessEntry
from repro.logstore.fragmentation import Fragment, FragmentPlan
from repro.logstore.glsn import GlsnAllocator
from repro.logstore.records import LogRecord
from repro.logstore.schema import Attribute, AttributeKind, GlobalSchema
from repro.logstore.store import DistributedLogStore

__all__ = ["snapshot_store", "restore_store", "dump_store", "load_store"]

_FORMAT_VERSION = 2
_SUPPORTED_FORMATS = (1, 2)


def _value_to_json(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    return value


def _value_from_json(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"__bytes__"}:
        return bytes.fromhex(value["__bytes__"])
    return value


def snapshot_store(store: DistributedLogStore) -> dict:
    """Serialize the full cluster storage state to a JSON-safe dict."""
    plan = store.plan
    schema = [
        {"name": attribute.name, "kind": attribute.kind.value}
        for attribute in plan.schema
    ]
    nodes = {}
    for node_id, node in store.stores.items():
        fragments = []
        for glsn in node.glsns:
            fragment = node.local_fragment(glsn)
            fragments.append(
                {
                    "glsn": glsn,
                    "values": {
                        k: _value_to_json(v) for k, v in fragment.values.items()
                    },
                    "anchor": format(node.expected_accumulator(glsn), "x"),
                }
            )
        acl_entries = []
        for ticket_id in node.acl.ticket_ids:
            entry = node.acl._entries[ticket_id]
            acl_entries.append(
                {
                    "ticket_id": ticket_id,
                    "operations": sorted(op.value for op in entry.operations),
                    "glsns": sorted(entry.glsns),
                }
            )
        nodes[node_id] = {"fragments": fragments, "acl": acl_entries}
    return {
        "format": _FORMAT_VERSION,
        "schema": schema,
        "assignment": plan.assignment,
        "allow_overlap": plan.allow_overlap,
        "accumulator": {"n": format(store.accumulator.params.n, "x"),
                        "x0": format(store.accumulator.params.x0, "x")},
        "next_glsn": store.allocator.next_value,
        "nodes": nodes,
    }


def _populate(store: DistributedLogStore, snapshot: dict) -> None:
    """Install snapshot state into ``store`` (bypassing ticketed writes)."""
    for node_id, body in snapshot["nodes"].items():
        node = store.node_store(node_id)
        for item in body["fragments"]:
            fragment = Fragment(
                glsn=item["glsn"],
                node_id=node_id,
                values={k: _value_from_json(v) for k, v in item["values"].items()},
            )
            # Bypass the ticket-checked write path: restoration re-installs
            # previously authorized state verbatim.
            node._fragments[fragment.glsn] = fragment
            node._accumulators[fragment.glsn] = int(item["anchor"], 16)
        for entry in body["acl"]:
            restored = AccessEntry(
                ticket_id=entry["ticket_id"],
                operations=frozenset(
                    Operation(op) for op in entry["operations"]
                ),
                glsns=set(entry["glsns"]),
            )
            node.acl._entries[entry["ticket_id"]] = restored
            for glsn in restored.glsns:
                node.acl._glsn_owner[glsn] = entry["ticket_id"]


def restore_store(
    snapshot: dict,
    authority: TicketAuthority,
    store: DistributedLogStore | None = None,
) -> DistributedLogStore:
    """Rebuild a store from a snapshot (ticket authority supplied fresh).

    When ``store`` is given (the durable backend recovering into a
    WAL-attached store), its existing stores are populated in place and
    its allocator/plan are left to the caller; otherwise a fresh
    in-memory :class:`DistributedLogStore` is built from the embedded
    plan and accumulator parameters.
    """
    if snapshot.get("format") not in _SUPPORTED_FORMATS:
        raise LogStoreError(
            f"unsupported snapshot format {snapshot.get('format')!r}"
        )
    if store is None:
        schema = GlobalSchema(
            [
                Attribute(item["name"], AttributeKind(item["kind"]))
                for item in snapshot["schema"]
            ]
        )
        plan = FragmentPlan(
            schema, snapshot["assignment"], allow_overlap=snapshot["allow_overlap"]
        )
        params = AccumulatorParams(
            n=int(snapshot["accumulator"]["n"], 16),
            x0=int(snapshot["accumulator"]["x0"], 16),
        )
        store = DistributedLogStore(
            plan,
            authority,
            params,
            allocator=GlsnAllocator(start=snapshot["next_glsn"]),
        )
    _populate(store, snapshot)
    return store


def dump_store(store: DistributedLogStore, path: str) -> None:
    """Write a snapshot to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot_store(store), handle, separators=(",", ":"))


def load_store(path: str, authority: TicketAuthority) -> DistributedLogStore:
    """Read a snapshot back from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return restore_store(json.load(handle), authority)

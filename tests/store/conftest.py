"""Shared fixtures for the durable-store suite."""

import pytest

from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.rng import DeterministicRng
from repro.crypto.tickets import Operation
from repro.store import StoreConfig, open_durable_store, recover_store


@pytest.fixture(scope="session")
def acc_params():
    return AccumulatorParams.generate(128, DeterministicRng(b"store-acc"))


@pytest.fixture()
def fast_config():
    """No fsync, no background compaction: deterministic and quick."""
    return StoreConfig(fsync="off", compact=False)


@pytest.fixture()
def durable_store(table1_plan, ticket_authority, acc_params, fast_config, tmp_path):
    """A fresh durable store in a tmp directory; ``(store, ticket, dir)``."""
    store, report = open_durable_store(
        table1_plan, ticket_authority, acc_params, tmp_path, config=fast_config
    )
    assert report is None
    ticket = ticket_authority.issue(
        "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
    )
    yield store, ticket, tmp_path
    store.close()


@pytest.fixture()
def round_trip(fast_config):
    """``round_trip(store) -> (recovered, report)``: checkpoint ``store``,
    close it and recover its directory, so the recovered state comes from
    the checkpoint alone.  Recovered stores are closed at teardown."""
    recovered = []

    def run(store):
        store.checkpoint()
        store.close()
        restored, report = recover_store(store.authority, store.directory, config=fast_config)
        recovered.append(restored)
        return restored, report

    yield run
    for store in recovered:
        store.close()


def reopen(plan, authority, params, directory, config):
    """Recover the store at ``directory``; returns ``(store, report)``."""
    return open_durable_store(plan, authority, params, directory, config=config)


def store_state(store) -> dict:
    """Everything a checkpoint must carry, as plain comparable values.

    Per node: each fragment's values (with their types, so ``1``,
    ``True``, ``"1"`` and ``b"1"`` differ, and a missing attribute differs
    from one holding ``None``), each anchor, and the ACL replica — every
    ticket entry with its rights and grants, emptied and inert ones
    included.  Plus the allocator's next glsn.
    """
    nodes = {}
    for node_id, node in store.stores.items():
        nodes[node_id] = {
            "fragments": {
                glsn: {k: (type(v), v) for k, v in node.local_fragment(glsn).values.items()}
                for glsn in node.glsns
            },
            "anchors": {glsn: node.expected_accumulator(glsn) for glsn in node.glsns},
            "acl": {
                ticket_id: (entry.operations, set(entry.glsns))
                for ticket_id, entry in node.acl._entries.items()
            },
            "owners": dict(node.acl._glsn_owner),
        }
    return {"nodes": nodes, "next_glsn": store.allocator.next_value}

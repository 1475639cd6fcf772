"""The integrity memos never outlive a rewrite.

Every integrity path reads ``Fragment.digest_exponent()``, computed once
per object; each ring node reuses its last fold of a glsn while the stored
``Fragment`` object and the incoming token value are unchanged
(``FragmentStore.fold``), and the initiator its last report while the
observed value and anchor are (``FragmentStore.verdicts``).  Each way a
stored fragment can change — a tamper, its restore, a delete and
re-append, a replayed WAL tamper record, a checkpoint reload — installs a
*new* ``Fragment``, so a check that ran (and filled the memos) before the
rewrite must still flag exactly the rewritten glsn afterwards, and be
clean again once the value is put back.  :class:`FoldMemoMachine` checks
the ring's memos against a memo-free reference fold over random
histories, lost fragments included.
"""

import shutil
import sys
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.crypto.accumulator import AccumulatorParams
from repro.crypto.rng import DeterministicRng
from repro.crypto.tickets import Operation
from repro.crypto.tickets import TicketAuthority
from repro.errors import ReproError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.logstore.integrity import (
    IntegrityChecker,
    IntegrityNode,
    run_batched_integrity_round,
    run_combined_integrity_round,
    run_integrity_round,
)
from repro.logstore.store import FragmentStore
from repro.net.simnet import SimNetwork
from repro.resilience import recovery_audit, ring_avoiding
from repro.store import StoreConfig, open_durable_store, recover_store
from repro.workloads import paper_table1_rows


def failing(store) -> dict[str, list[int]]:
    """The glsns each integrity path flags; the rings' memos live in the
    store, so every call after the first is a warm sweep."""
    combined = run_combined_integrity_round(store)
    localized = [r.glsn for r in combined.reports if not r.ok]
    assert combined.ok == (not localized)
    return {
        "per_glsn": [r.glsn for r in run_integrity_round(store) if not r.ok],
        "batched": [r.glsn for r in run_batched_integrity_round(store) if not r.ok],
        "combined": localized,
        "checker": [r.glsn for r in IntegrityChecker(store).check_all() if not r.ok],
        "recovery_audit": list(recovery_audit(store).failures),
    }


def assert_flags(store, expected: list[int]) -> None:
    got = failing(store)
    assert got == dict.fromkeys(got, expected)


class TestMemoAcrossRewrites:
    def test_tamper_then_restore(self, populated_store):
        store, _, receipts = populated_store
        assert_flags(store, [])  # fills every memo
        glsn = receipts[2].glsn
        node = store.node_store("P1")
        original = node.local_fragment(glsn).values["C2"]
        node.tamper(glsn, "C2", 10**6)
        assert_flags(store, [glsn])
        node.tamper(glsn, "C2", original)
        assert_flags(store, [])

    def test_delete_then_reappend(self, populated_store):
        store, ticket, receipts = populated_store
        assert_flags(store, [])
        gone = receipts[1].glsn
        store.delete_record(gone, ticket)
        again = store.append(paper_table1_rows()[1], ticket).glsn
        assert gone not in store.glsns and again in store.glsns
        assert_flags(store, [])
        node = store.node_store("P2")
        original = node.local_fragment(again).values["C3"]
        node.tamper(again, "C3", "forged")
        assert_flags(store, [again])
        node.tamper(again, "C3", original)
        assert_flags(store, [])

    def test_snapshot_reload(self, table1_plan, ticket_authority, tmp_path):
        config = StoreConfig(fsync="off", compact=False)
        store, _ = open_durable_store(
            table1_plan,
            ticket_authority,
            AccumulatorParams.generate(128, DeterministicRng(b"memo-acc")),
            tmp_path,
            config=config,
        )
        ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
        receipts = store.append_record(paper_table1_rows(), ticket)
        assert_flags(store, [])
        glsn = receipts[3].glsn
        original = store.node_store("P1").local_fragment(glsn).values["C2"]
        store.node_store("P1").tamper(glsn, "C2", 10**6)
        store.checkpoint()
        store.close()
        reloaded, _ = recover_store(ticket_authority, tmp_path, config=config)
        try:
            assert_flags(reloaded, [glsn])
            reloaded.node_store("P1").tamper(glsn, "C2", original)
            assert_flags(reloaded, [])
        finally:
            reloaded.close()

    def test_replayed_wal_tamper_record(
        self, table1_plan, ticket_authority, tmp_path
    ):
        store, _ = open_durable_store(
            table1_plan,
            ticket_authority,
            AccumulatorParams.generate(128, DeterministicRng(b"memo-acc")),
            tmp_path,
            config=StoreConfig(fsync="off", compact=False),
        )
        try:
            ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
            receipts = store.append_record(paper_table1_rows(), ticket)
            assert_flags(store, [])
            glsn = receipts[0].glsn
            node = store.node_store("P1")
            original = node.local_fragment(glsn).values["C2"]
            record = {"op": "tamper", "glsn": glsn, "attribute": "C2", "value": 10**6}
            node.apply_wal_record(record)
            assert_flags(store, [glsn])
            node.apply_wal_record(dict(record, value=original))
            assert_flags(store, [])
        finally:
            store.close()


def test_memo_is_not_part_of_a_fragments_identity(populated_store):
    store, _, receipts = populated_store
    fragment = store.node_store("P0").local_fragment(receipts[0].glsn)
    Fragment = type(fragment)
    fields = dict(glsn=fragment.glsn, node_id=fragment.node_id, values=fragment.values)
    read, unread = Fragment(**fields), Fragment(**fields)
    assert read.digest_exponent() == fragment.digest_exponent()
    assert read == unread and repr(read) == repr(unread)
    with pytest.raises(TypeError):
        Fragment(**fields, _digest_exponent=3)


# -- the ring's fold memo against a memo-free reference ------------------------

_PARAMS = AccumulatorParams.generate(128, DeterministicRng(b"fold-memo"))
_NODES = ("P0", "P1", "P2", "P3")


def reference_reports(store, initiator: str, order: list[str]) -> list[tuple]:
    """(glsn, ok, expected, observed) from a plain ``pow`` chain per glsn; a
    node without the fragment contributes 0, an initiator without it has
    no anchor (0), and either way the glsn fails."""
    n = store.accumulator.params.n
    out = []
    for glsn in store.glsns:
        value = store.accumulator.params.x0
        for node_id in order:
            fragment = store.stores[node_id]._fragments.get(glsn)
            value = 0 if fragment is None else pow(value, fragment.digest_exponent(), n)
        expected = store.stores[initiator]._accumulators.get(glsn, 0)
        out.append((glsn, value == expected != 0, expected, value))
    return out


def ring_sweep(store, order: list[str]) -> list[tuple]:
    """One batched token round the ring in ``order`` (initiator first), as
    the failover supervisor launches it after routing around a link."""
    net = SimNetwork()
    nodes = {
        node_id: IntegrityNode(node_id, store.stores[node_id], store.accumulator, order)
        for node_id in order
    }
    for node_id, node in nodes.items():
        net.register(node_id, node.handle)
    glsns = store.glsns
    nodes[order[0]].start_batch_check(net, glsns)
    net.run()
    reports = nodes[order[0]].state.reports
    return [(g, reports[g].ok, reports[g].expected, reports[g].observed) for g in glsns]


class FoldMemoMachine(RuleBasedStateMachine):
    """Random appends, tampers at any node, restores, deletes, evictions,
    replayed WAL tamper records and sweeps over reordered rings; after
    every sweep each per-glsn report equals the memo-free reference fold
    (the in-process checker agrees on every verdict), and a glsn fails
    exactly while one of its fragments differs from what was written or
    is lost."""

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="fold-memo-")
        authority = TicketAuthority(b"fold-memo-master-secret-0123456789")
        self.store, _ = open_durable_store(
            paper_fragment_plan(paper_table1_schema()), authority, _PARAMS,
            self.directory, config=StoreConfig(fsync="off", compact=False),
        )
        self.ticket = authority.issue(
            "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
        )
        self.rows = paper_table1_rows()
        self.written: dict[tuple[str, int], dict] = {}  # (node, glsn) -> values
        self.evicted: set[tuple[str, int]] = set()

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _fragment(self, data, tampered: bool | None = None):
        """A (node, glsn, attribute) of a stored fragment with values."""
        pairs = sorted(
            (node_id, glsn)
            for (node_id, glsn), values in self.written.items()
            if values and (node_id, glsn) not in self.evicted
            and (tampered is None or tampered == self._tampered(node_id, glsn))
        )
        if not pairs:
            return None
        node_id, glsn = data.draw(st.sampled_from(pairs))
        attribute = data.draw(st.sampled_from(sorted(self.written[node_id, glsn])))
        return node_id, glsn, attribute

    def _tampered(self, node_id: str, glsn: int) -> bool:
        stored = self.store.node_store(node_id).local_fragment(glsn).values
        return dict(stored) != self.written[node_id, glsn]

    @rule(row=st.integers(0, 4))
    def append(self, row: int) -> None:
        glsn = self.store.append(self.rows[row], self.ticket).glsn
        for node_id in _NODES:
            fragment = self.store.node_store(node_id).local_fragment(glsn)
            self.written[node_id, glsn] = dict(fragment.values)

    @precondition(lambda self: self.written)
    @rule(data=st.data(), replayed=st.booleans(), value=st.integers(10**6, 10**6 + 3))
    def tamper(self, data, replayed: bool, value: int) -> None:
        picked = self._fragment(data)
        if picked is None:
            return
        node_id, glsn, attribute = picked
        node = self.store.node_store(node_id)
        if replayed:
            node.apply_wal_record(
                {"op": "tamper", "glsn": glsn, "attribute": attribute, "value": value}
            )
        else:
            node.tamper(glsn, attribute, value)

    @precondition(lambda self: self.written)
    @rule(data=st.data())
    def restore(self, data) -> None:
        picked = self._fragment(data, tampered=True)
        if picked is None:
            return
        node_id, glsn, _ = picked
        for attribute, value in self.written[node_id, glsn].items():
            self.store.node_store(node_id).tamper(glsn, attribute, value)

    @precondition(lambda self: self.written)
    @rule(data=st.data())
    def delete(self, data) -> None:
        if not self.store.glsns:  # every fragment evicted
            return
        glsn = data.draw(st.sampled_from(self.store.glsns))
        self.store.delete_record(glsn, self.ticket)
        for node_id in _NODES:
            del self.written[node_id, glsn]
            self.evicted.discard((node_id, glsn))

    @precondition(lambda self: self.written)
    @rule(data=st.data())
    def evict(self, data) -> None:
        held = sorted(set(self.written) - self.evicted)
        if held:
            node_id, glsn = data.draw(st.sampled_from(held))
            self.store.node_store(node_id).evict(glsn)
            self.evicted.add((node_id, glsn))

    @rule(
        initiator=st.sampled_from(_NODES[:2]),
        avoid=st.one_of(
            st.just(set()),
            st.sets(st.permutations(_NODES).map(lambda p: tuple(p[:2])), max_size=2),
        ),
        supervised=st.booleans(),
    )
    def sweep(self, initiator: str, avoid: set, supervised: bool) -> None:
        # The supervised round (the service's path) runs the default ring.
        order = ring_avoiding(_NODES, frozenset() if supervised else frozenset(avoid))
        pivot = order.index(initiator)
        order = order[pivot:] + order[:pivot]
        if supervised:
            reports = [
                (r.glsn, r.ok, r.expected, r.observed)
                for r in run_batched_integrity_round(self.store, initiator=initiator)
            ]
        else:
            reports = ring_sweep(self.store, order)
        assert reports == reference_reports(self.store, initiator, order)
        checked = IntegrityChecker(self.store).check_all()
        assert [(r.glsn, r.ok) for r in checked] == [r[:2] for r in reports]
        failing = [glsn for glsn, ok, _, _ in reports if not ok]
        assert failing == sorted(
            {
                glsn for node_id, glsn in self.written
                if (node_id, glsn) in self.evicted or self._tampered(node_id, glsn)
            }.intersection(self.store.glsns)
        )

    @invariant()
    def memo_holds_only_live_glsns(self) -> None:
        for node_id in _NODES:
            node = self.store.node_store(node_id)
            assert set(node._folds) <= set(node._fragments)
            assert set(node._verdicts) <= set(node._fragments)


FoldMemoMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestFoldMemoTwins = FoldMemoMachine.TestCase


def test_a_memo_keyed_on_glsn_alone_is_caught(monkeypatch):
    """Mutation check: a memo that ignores its inputs misses a tamper."""

    def glsn_only_fold(self, glsns, incoming, compute):
        held = self._fragments
        misses = [
            (g, x) for g, x in zip(glsns, incoming) if g in held and g not in self._folds
        ]
        fragments = [held[g] for g, _ in misses]
        exponents = [fragment.digest_exponent() for fragment in fragments]
        results = compute([x for _, x in misses], exponents)
        for (glsn, value), fragment, result in zip(misses, fragments, results):
            self._folds[glsn] = (fragment, value, result)
        folded = [self._folds[g][2] if g in held else 0 for g in glsns]
        return folded, len(misses), len(glsns) - len(misses)

    monkeypatch.setattr(FragmentStore, "fold", glsn_only_fold)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            FoldMemoMachine,
            settings=settings(
                max_examples=200, stateful_step_count=25, deadline=None,
                derandomize=True, phases=[Phase.generate],
                suppress_health_check=[HealthCheck.too_slow],
            ),
        )


def test_concurrent_sweeps_and_deletes_keep_the_memo_within_the_log(populated_store):
    """Three sweeping threads race a deleting one: a sweep never raises,
    fails only glsns a delete reached, and a memo write-back never re-adds
    a glsn that a delete forgot meanwhile."""
    store, ticket, _ = populated_store
    for i in range(150):
        store.append({"Tid": f"S{i}", "C1": i}, ticket)
    stop = threading.Event()
    completed, errors = [], []

    def sweeper():
        while not stop.is_set():
            try:
                reports = run_batched_integrity_round(store)
            except ReproError as exc:
                errors.append(exc)
                return
            # Held by every node now, so held throughout the sweep.
            whole = set.intersection(*(set(n.glsns) for n in store.stores.values()))
            completed.append(all(r.ok for r in reports if r.glsn in whole))

    def deleter():
        for glsn in store.glsns[:-10]:
            store.delete_record(glsn, ticket)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweepers = [threading.Thread(target=sweeper) for _ in range(3)]
        for thread in sweepers:
            thread.start()
        deleting = threading.Thread(target=deleter)
        deleting.start()
        deleting.join(timeout=60)
        stop.set()
        for thread in sweepers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not deleting.is_alive() and not any(t.is_alive() for t in sweepers)
    assert completed and all(completed) and not errors
    for node in store.stores.values():
        assert set(node._folds) <= set(node._fragments)
        assert set(node._verdicts) <= set(node._fragments)
    assert all(r.ok for r in run_batched_integrity_round(store))
    for node in store.stores.values():
        # One memo entry per held glsn, keyed on the fragment stored now.
        assert set(node._folds) == set(node._fragments)
        assert all(node._fragments[g] is f for g, (f, _, _) in node._folds.items())
    assert set(store.node_store("P0")._verdicts) == set(store.glsns)

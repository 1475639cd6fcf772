"""Tests for the batched §4.1 integrity ring and its pinned combined names."""

import pytest

from repro.logstore import integrity
from repro.logstore.integrity import (
    IntegrityChecker,
    run_batched_integrity_round,
    run_combined_integrity_round,
    run_integrity_round,
)
from repro.net.simnet import SimNetwork
from repro.resilience import RetryPolicy


class TestBatchedRing:
    def test_reports_identical_to_legacy_ring(self, populated_store):
        store, _, _ = populated_store
        legacy = run_integrity_round(store)
        batched = run_batched_integrity_round(store)
        assert batched == legacy

    def test_message_cost_constant_in_glsns(self, populated_store):
        """The whole log costs exactly n messages — O(nodes), not O(nodes × glsns)."""
        store, _, _ = populated_store
        net = SimNetwork()
        reports = run_batched_integrity_round(store, net=net)
        n = len(store.stores)
        assert len(reports) == 5
        assert net.stats.messages == n  # (n-1) integ.mpass + 1 integ.mdone
        # The legacy ring pays n per glsn for the same verdicts.
        legacy_net = SimNetwork()
        run_integrity_round(store, net=legacy_net)
        assert legacy_net.stats.messages == n * 5

    def test_detects_tamper(self, populated_store):
        store, _, receipts = populated_store
        store.node_store("P2").tamper(receipts[3].glsn, "C3", "forged")
        verdicts = {r.glsn: r.ok for r in run_batched_integrity_round(store)}
        assert verdicts[receipts[3].glsn] is False
        assert sum(not ok for ok in verdicts.values()) == 1

    def test_empty_request(self, populated_store):
        store, _, _ = populated_store
        assert run_batched_integrity_round(store, glsns=[]) == []

    def test_any_initiator(self, populated_store):
        store, _, _ = populated_store
        for initiator in store.stores:
            reports = run_batched_integrity_round(store, initiator=initiator)
            assert all(r.ok for r in reports)


class TestCombinedRing:
    """The combined product-fold ring is retired; its two pinned names run
    the batched round and return its reports as one per-glsn verdict."""

    def test_tamper_detected_and_localized(self, populated_store):
        store, _, receipts = populated_store
        store.node_store("P1").tamper(receipts[2].glsn, "C2", "999999.99")
        verdict = run_combined_integrity_round(store)
        assert not verdict.ok and verdict.mode == "per-glsn"
        bad = [r.glsn for r in verdict.reports if not r.ok]
        assert bad == [receipts[2].glsn]
        assert list(verdict.reports) == run_batched_integrity_round(store)

    def test_delete_falls_back_to_per_glsn(self, populated_store):
        store, ticket, receipts = populated_store
        store.delete_record(receipts[2].glsn, ticket)
        verdict = run_combined_integrity_round(store)
        assert verdict.mode == "per-glsn"
        assert verdict.ok and len(verdict.reports) == 4

    def test_non_prefix_request_falls_back(self, populated_store):
        store, _, receipts = populated_store
        scattered = [receipts[1].glsn, receipts[4].glsn]
        verdict = run_combined_integrity_round(store, glsns=scattered)
        assert verdict.mode == "per-glsn" and verdict.ok
        assert verdict.glsns == tuple(scattered)

    @pytest.mark.parametrize("resilience", [None, RetryPolicy()], ids=["plain", "resilient"])
    def test_one_node_set_per_launch(self, populated_store, monkeypatch, resilience):
        """A clean round is one launch: one IntegrityNode per store."""
        store, _, _ = populated_store
        built = []

        class CountingNode(integrity.IntegrityNode):
            def __init__(self, node_id, *args, **kwargs):
                built.append(node_id)
                super().__init__(node_id, *args, **kwargs)

        monkeypatch.setattr(integrity, "IntegrityNode", CountingNode)
        verdict = run_combined_integrity_round(
            store, net=SimNetwork(resilience=resilience)
        )
        assert verdict.ok and verdict.verified
        assert sorted(built) == sorted(store.stores)


class TestReportReuse:
    """The initiator keeps its last report per glsn and builds a new one
    only where the observed value or its anchor changed."""

    def test_second_sweep_returns_the_same_reports(self, populated_store):
        store, _, _ = populated_store
        first = run_batched_integrity_round(store)
        second = run_batched_integrity_round(store)
        assert all(a is b for a, b in zip(first, second, strict=True))
        assert IntegrityChecker(store).check_all() == second

    def test_append_builds_only_the_new_glsns_report(self, populated_store):
        store, ticket, _ = populated_store
        first = run_batched_integrity_round(store)
        glsn = store.append({"id": "U9", "C1": 7}, ticket).glsn
        reports = run_batched_integrity_round(store)
        assert all(r.ok for r in reports) and len(reports) == 6
        assert all(a is b for a, b in zip(first, reports[:-1], strict=True))
        assert reports[-1].glsn == glsn

    def test_tamper_replaces_only_its_glsns_report(self, populated_store):
        store, _, receipts = populated_store
        clean = run_batched_integrity_round(store)
        victim = receipts[1].glsn
        store.node_store("P0").tamper(victim, "Time", "never")
        tampered = run_batched_integrity_round(store)
        assert [r.glsn for r in tampered if not r.ok] == [victim]
        assert [r.glsn for a, r in zip(clean, tampered) if a is not r] == [victim]


class TestServiceWiring:
    def test_batched_default_matches_legacy(self, populated_store):
        from repro.core.service import ConfidentialAuditingService  # noqa: F401
        # The service-level path is covered by tests/core; here assert the
        # two distributed forms agree over the same store.
        store, _, receipts = populated_store
        store.node_store("P3").tamper(receipts[4].glsn, "C1", -1)
        assert run_batched_integrity_round(store) == run_integrity_round(store)

"""Tests for the end-to-end ConfidentialAuditingService."""

import threading

import pytest

from repro.core import (
    ApplicationNode,
    AtomicityRule,
    Auditor,
    ConfidentialAuditingService,
    Transaction,
    AtomicEvent,
)
from repro.crypto import DeterministicRng, Operation
from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    TicketError,
)
from repro.logstore import paper_fragment_plan, paper_table1_schema


@pytest.fixture(scope="module")
def service():
    schema = paper_table1_schema()
    return ConfidentialAuditingService(
        schema,
        paper_fragment_plan(schema),
        prime_bits=64,
        rng=DeterministicRng(b"service-tests"),
    )


@pytest.fixture(scope="module")
def seeded(service):
    """Two app nodes with one complete transaction logged."""
    u1 = ApplicationNode.register("U1", service)
    u2 = ApplicationNode.register("U2", service)
    t = Transaction(tsn="T7000", ttn="order")
    t.add_event(AtomicEvent("place", "U1", {"protocl": "UDP", "C1": 21, "C2": "10.00"}))
    t.add_event(AtomicEvent("confirm", "U2", {"protocl": "UDP", "C1": 21, "C2": "10.00"}))
    u1.log_transaction(t)
    u2.log_transaction(t)
    return u1, u2


class TestDeployment:
    def test_membership_covers_all_nodes(self, service):
        summary = service.membership_summary()
        assert summary["size"] == 4
        assert summary["chain_length"] == 3
        service.membership.verify()

    def test_threshold_default_majority(self, service):
        assert service.threshold == 3

    def test_invalid_threshold_rejected(self):
        schema = paper_table1_schema()
        with pytest.raises(ConfigurationError):
            ConfidentialAuditingService(
                schema, paper_fragment_plan(schema), threshold=9,
                rng=DeterministicRng(b"x"),
            )

    def test_describe(self, service):
        text = service.describe()
        assert "P0" in text and "3/4" in text


class TestLoggingPath(object):
    def test_log_and_read_back(self, service, seeded):
        u1, _ = seeded
        receipt = u1.receipts[0]
        record = u1.read_back(receipt)
        assert record.values["Tid"] == "T7000"
        assert record.values["id"] == "U1"

    def test_receipt_verification(self, service, seeded):
        u1, _ = seeded
        assert u1.verify_receipt(u1.receipts[0])

    def test_cannot_read_others_records(self, service, seeded):
        u1, u2 = seeded
        with pytest.raises(AccessDeniedError):
            service.read_own_record(u2.receipts[0].glsn, u1.ticket)

    def test_expired_ticket_rejected(self, service):
        short = service.register_user("U9", lifetime=1)
        service.ticket_authority.tick(5)
        with pytest.raises(TicketError):
            service.log_event({"Tid": "Tx"}, short)

    def test_log_event_rejects_foreign_executor(self, service, seeded):
        u1, _ = seeded
        t = Transaction(tsn="T1", ttn="order")
        event = AtomicEvent("place", "U2")
        from repro.errors import LogStoreError

        with pytest.raises(LogStoreError):
            u1.log_event(t, event, 0)


class TestAuditingPath:
    def test_query(self, service, seeded):
        result = service.query("Tid = 'T7000'")
        assert result.count == 2

    def test_audited_query_signed(self, service, seeded):
        report = service.audited_query("Tid = 'T7000'")
        assert len(report.glsns) == 2
        assert service.verify_report(report)

    def test_tampered_report_fails(self, service, seeded):
        import dataclasses

        report = service.audited_query("Tid = 'T7000'")
        forged = dataclasses.replace(report, glsns=report.glsns[:1])
        assert not service.verify_report(forged)

    def test_auditor_wrapper(self, service, seeded):
        auditor = Auditor("aud", service)
        report = auditor.audited_query("id = 'U1'")
        assert report.glsns
        assert auditor.reverify_session()
        verdict = auditor.check_rule(AtomicityRule(tsn="T7000", width=2))
        assert verdict.passed

    def test_aggregate(self, service, seeded):
        assert service.aggregate("sum", "C1").value == 42
        assert service.aggregate("count", "C1", "protocl = 'UDP'").value == 2

    def test_plan_criterion(self, service):
        plan = service.plan_criterion("C1 < C2 and Tid = 'T7000'")
        assert plan.t == 1 and plan.q == 2

    def test_integrity_clean(self, service, seeded):
        assert all(r.ok for r in service.check_integrity())
        assert all(r.ok for r in service.check_integrity(distributed=False))

    def test_cost_snapshot(self, service, seeded):
        service.query("Tid = id")  # force SMC traffic
        snapshot = service.cost_snapshot()
        assert snapshot["crypto_ops"].get("total.modexp", 0) > 0
        assert "set_size" in snapshot["leakage_categories"]

    def test_every_modexp_is_some_party_s_and_nothing_runs_beside_the_query(
        self, service, seeded
    ):
        """What outlives the pool subsystem: one ledger, no offline share,
        no background thread."""
        service.query("C1 < C2 and Tid = 'T7000'")  # a cross predicate
        service.check_integrity()
        snapshot = service.cost_snapshot()
        assert set(snapshot) == {
            "crypto_ops", "integrity_ops", "leakage_events", "leakage_categories",
        }
        for ledger in (snapshot["crypto_ops"], snapshot["integrity_ops"]):
            assert not [key for key in ledger if key.startswith("offline.")]
            # Besides modexps, the integrity ledger counts memo-reused folds.
            assert all(k.endswith((".modexp", ".fold_reused")) for k in ledger)
            parties = {
                k: v for k, v in ledger.items()
                if k.endswith(".modexp") and k != "total.modexp"
            }
            assert ledger["total.modexp"] == sum(parties.values()) > 0
        assert "repro-precompute-refill" not in {
            thread.name for thread in threading.enumerate()
        }


class TestTamperedCluster:
    def test_integrity_detects_compromised_node(self):
        schema = paper_table1_schema()
        service = ConfidentialAuditingService(
            schema, paper_fragment_plan(schema), prime_bits=64,
            rng=DeterministicRng(b"tamper"),
        )
        node = ApplicationNode.register("U1", service)
        receipt = node.log_values({"Tid": "T1", "C1": 5, "protocl": "UDP"})
        service.store.node_store("P3").tamper(receipt.glsn, "C1", 999)
        reports = service.check_integrity()
        assert any(not r.ok for r in reports)
        assert not node.verify_receipt(receipt)


class TestLargeIntegritySweep:
    def test_sweeps_fold_only_what_changed(self):
        """Each node re-folds only the glsns whose inputs changed since its
        last fold, and its memo holds exactly its live glsns — past the
        4 096 rows where the deleted witness-base LRU thrashed."""
        schema = paper_table1_schema()
        service = ConfidentialAuditingService(
            schema, paper_fragment_plan(schema), prime_bits=64,
            rng=DeterministicRng(b"past-the-cliff"),
        )
        nodes = service.plan.node_ids
        ticket = service.register_user(
            "u", {Operation.READ, Operation.WRITE, Operation.DELETE}
        )
        rows = 4097

        def log(start, count):
            for i in range(start, start + count):
                service.log_event({"Tid": f"T{i}", "C1": i, "C2": i % 97}, ticket)

        def sweep() -> dict[str, int]:
            before = service.integrity_ops.snapshot()
            reports = service.check_integrity()
            glsns = service.store.glsns
            assert [r.glsn for r in reports] == glsns and all(r.ok for r in reports)
            ops = service.integrity_ops.snapshot()
            delta = {k: ops.get(k, 0) - before.get(k, 0) for k in ops}
            # Every glsn is either folded or reused, at every node.
            for node in nodes:
                assert delta.get(f"{node}.modexp", 0) + delta.get(
                    f"{node}.fold_reused", 0
                ) == len(glsns)
            assert delta.get("total.modexp", 0) + delta.get(
                "total.fold_reused", 0
            ) == len(nodes) * len(glsns)
            return {node: delta.get(f"{node}.modexp", 0) for node in nodes}

        log(0, rows)
        assert sweep() == dict.fromkeys(nodes, rows)
        assert sweep() == dict.fromkeys(nodes, 0)
        log(rows, 5)
        assert sweep() == dict.fromkeys(nodes, 5)
        service.store.delete_record(service.store.glsns[7], ticket)
        for node in nodes:
            store = service.store.node_store(node)
            assert len(store._folds) == len(store) == rows + 4


class TestCountsAt512Bits:
    """Short exponents make each modexp cheaper; they must not change how
    many there are, what is answered, or what is leaked.  The counts follow
    from set sizes alone: ``n·Σ|S_i|`` per intersection ring, and
    ``n·Σ|A_i| + n·|∪A_i|`` for a cross predicate's alignment over the
    *absent* sets ``A_i`` (docs/protocols.md, "Query execution")."""

    def _service(self, rows):
        from repro.crypto.pohlig_hellman import PohligHellmanCipher

        schema = paper_table1_schema()
        service = ConfidentialAuditingService(
            schema, paper_fragment_plan(schema), prime_bits=512,
            rng=DeterministicRng(b"short-exponents"),
        )
        key = PohligHellmanCipher.generate(service.ctx.prime, DeterministicRng(0)).key
        assert key.e.bit_length() == 256
        ticket = service.register_user("u", {Operation.READ, Operation.WRITE})
        glsns = [service.log_event(row, ticket).glsn for row in rows]
        return service, glsns

    def test_cross_node_query_counts_follow_from_set_sizes(self):
        rows = [
            {"C1": 10 + i, "C5": 15, "C3": "L" if i % 3 == 0 else "M"}
            for i in range(12)
        ]
        service, glsns = self._service(rows)
        greater = [g for g, r in zip(glsns, rows) if r["C1"] > r["C5"]]
        labelled = [g for g, r in zip(glsns, rows) if r["C3"] == "L"]
        leaked_before = service.ctx.leakage.count()

        result = service.query("C1 > C5 and C3 = 'L'")

        assert sorted(result.glsns) == sorted(set(greater) & set(labelled))
        # C1 > C5 aligns the two owners (C1@P3, C5@P1) over their absent
        # sets — both empty here, so the union ring moves no element — and
        # the conjunction intersects the clause sets held at P3 and P2.
        conjunction = 2 * (len(greater) + len(labelled))
        cost = service.last_query_cost
        assert cost.modexp == conjunction == 20
        assert cost.messages == 17
        events = service.ctx.leakage.events[leaked_before:]
        assert len(events) == 8
        assert {event.category for event in events} == {
            "order_statistics", "position_linkage", "result_cardinality", "set_size",
        }
        service.close()

    def test_sparse_attribute_pays_for_its_absent_glsns_only(self):
        rows = [
            {"C1": 10 + i, "C5": 15, "C3": "L" if i % 3 == 0 else "M"}
            for i in range(12)
        ]
        del rows[2]["C5"], rows[7]["C5"]
        service, glsns = self._service(rows)
        greater = [
            g for g, r in zip(glsns, rows) if "C5" in r and r["C1"] > r["C5"]
        ]
        labelled = [g for g, r in zip(glsns, rows) if r["C3"] == "L"]

        result = service.query("C1 > C5 and C3 = 'L'")

        assert sorted(result.glsns) == sorted(set(greater) & set(labelled))
        # Two glsns lack C5: each is encrypted by both owners, and the
        # two-element union is decrypted by both.
        alignment = 2 * (0 + 2) + 2 * 2
        conjunction = 2 * (len(greater) + len(labelled))
        assert service.last_query_cost.modexp == alignment + conjunction == 26
        service.close()

    def test_clause_on_a_party_of_the_cross_predicate_needs_no_final_ring(self):
        rows = [{"C1": 10 + i, "C5": 15, "C2": float(i)} for i in range(12)]
        service, glsns = self._service(rows)
        want = [g for g, r in zip(glsns, rows) if r["C1"] > r["C5"] and r["C2"] < 9]
        leaked_before = service.ctx.leakage.count()

        result = service.query("C1 > C5 and C2 < 9")

        # C2 lives on P1, a party of C1 > C5, which therefore holds both
        # clause sets: nothing is encrypted, and only the alignment (6
        # messages) and the blinded comparison (4) use the network.
        assert sorted(result.glsns) == sorted(want) and want
        cost = service.last_query_cost
        assert cost.modexp == 0
        assert cost.messages == 10
        events = service.ctx.leakage.events[leaked_before:]
        assert sorted(event.category for event in events) == [
            "order_statistics", "result_cardinality", "set_size", "set_size",
        ]
        service.close()

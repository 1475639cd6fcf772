"""Tests for §4.1 distributed integrity cross-checking."""

import pytest

from repro.errors import IntegrityError, ProtocolAbortError
from repro.logstore import integrity
from repro.logstore.integrity import EXACT_LEAF, IntegrityChecker, run_integrity_round
from repro.net.simnet import SimNetwork
from repro.workloads import paper_table1_rows


def grow(store, ticket, count):
    """Append ``count`` more Table 1 rows (distinct Tid values)."""
    table = paper_table1_rows()
    rows = [{**table[i % len(table)], "Tid": f"T{i:05d}"} for i in range(count)]
    return store.append_batch(rows, ticket)


def exact_reports(store):
    checker = IntegrityChecker(store)
    return [checker.check_glsn(glsn) for glsn in store.glsns]


class TestInProcessChecker:
    def test_clean_store(self, populated_store):
        store, _, _ = populated_store
        checker = IntegrityChecker(store)
        reports = checker.check_all()
        assert len(reports) == 5
        assert all(r.ok for r in reports)
        checker.require_clean()

    def test_single_value_tamper_detected(self, populated_store):
        store, _, receipts = populated_store
        store.node_store("P1").tamper(receipts[2].glsn, "C2", "999999.99")
        checker = IntegrityChecker(store)
        bad = [r for r in checker.check_all() if not r.ok]
        assert [r.glsn for r in bad] == [receipts[2].glsn]

    def test_require_clean_raises_with_glsn(self, populated_store):
        store, _, receipts = populated_store
        store.node_store("P2").tamper(receipts[0].glsn, "C3", "forged")
        with pytest.raises(IntegrityError) as excinfo:
            IntegrityChecker(store).require_clean()
        assert format(receipts[0].glsn, "x") in str(excinfo.value)

    def test_tamper_on_every_node_detected(self, populated_store):
        """Any single compromised node is caught regardless of which."""
        store, _, receipts = populated_store
        for i, node_id in enumerate(store.stores):
            target = receipts[i].glsn
            attr = store.plan.assignment[node_id][0]
            store.node_store(node_id).tamper(target, attr, "EVIL")
        reports = IntegrityChecker(store).check_all()
        bad = {r.glsn for r in reports if not r.ok}
        assert bad == {r.glsn for r in receipts[:4]}

    def test_added_attribute_detected(self, populated_store):
        """Tampering by *adding* a value also changes the digest."""
        store, _, receipts = populated_store
        store.node_store("P0").tamper(receipts[1].glsn, "C4", "injected")
        assert not IntegrityChecker(store).check_glsn(receipts[1].glsn).ok


class TestAnchorVote:
    """A glsn is checked against the anchor a strict majority of nodes hold."""

    def test_one_rewritten_anchor_is_outvoted(self, populated_store):
        store, _, receipts = populated_store
        glsn = receipts[2].glsn
        store.node_store("P3")._accumulators[glsn] = 5
        checker = IntegrityChecker(store)
        report = checker.check_glsn(glsn)
        assert report.ok and report.expected == receipts[2].accumulator
        assert all(r.ok for r in checker.check_all())

    @pytest.mark.parametrize("order", ["true anchor first", "forged anchor first"])
    def test_a_two_two_split_fails_whatever_the_order(self, populated_store, order):
        store, _, receipts = populated_store
        glsn = receipts[1].glsn
        true, forged = receipts[1].accumulator, receipts[1].accumulator + 2
        first, second = (true, forged) if order == "true anchor first" else (forged, true)
        for node_id, anchor in zip(sorted(store.stores), (first, first, second, second)):
            store.node_store(node_id)._accumulators[glsn] = anchor
        checker = IntegrityChecker(store)
        report = checker.check_glsn(glsn)
        assert not report.ok and report.expected == 0
        assert report.observed == true
        assert [r for r in checker.check_all() if not r.ok] == [report]


class TestBatchCheck:
    """``check_all`` confirms every glsn in one small-exponent batch and
    bisects a failing one down to exact ``check_glsn`` leaves."""

    @pytest.fixture()
    def large_store(self, populated_store):
        store, ticket, _ = populated_store
        grow(store, ticket, 6 * EXACT_LEAF)
        return store

    def test_a_clean_store_needs_no_exact_check(self, large_store, monkeypatch):
        calls = []
        monkeypatch.setattr(
            IntegrityChecker, "check_glsn", lambda self, glsn: calls.append(glsn)
        )
        reports = IntegrityChecker(large_store).check_all()
        assert calls == [] and len(reports) == len(large_store.glsns)
        assert all(r.ok and r.observed == r.expected for r in reports)

    def test_one_tamper_is_localised_to_one_exact_leaf(self, large_store, monkeypatch):
        victim = large_store.glsns[37]
        large_store.node_store("P2").tamper(victim, "C3", "forged")
        calls = []
        exact = IntegrityChecker.check_glsn
        monkeypatch.setattr(
            IntegrityChecker, "check_glsn",
            lambda self, glsn: calls.append(glsn) or exact(self, glsn),
        )
        reports = IntegrityChecker(large_store).check_all()
        assert [r.glsn for r in reports if not r.ok] == [victim]
        assert victim in calls and len(calls) <= EXACT_LEAF

    def test_reports_equal_the_exact_path(self, large_store):
        glsns = large_store.glsns
        large_store.node_store("P0").tamper(glsns[3], "C4", "x")
        large_store.node_store("P1").evict(glsns[40])
        large_store.node_store("P3")._accumulators[glsns[41]] = 7
        for node_id in ("P0", "P1"):
            large_store.node_store(node_id)._accumulators[glsns[90]] = 9
        assert IntegrityChecker(large_store).check_all() == exact_reports(large_store)

    def test_an_anchor_congruent_mod_n_is_not_accepted(self, large_store):
        """``anchor + n`` reduces to the right residue inside a product, but
        it is not the anchor: the batch must not pass it."""
        glsn = large_store.glsns[5]
        n = large_store.accumulator.params.n
        for node in large_store.stores.values():
            node._accumulators[glsn] += n
        reports = IntegrityChecker(large_store).check_all()
        assert [r.glsn for r in reports if not r.ok] == [glsn]
        assert reports == exact_reports(large_store)

    def test_weights_are_drawn_from_the_os(self, large_store, monkeypatch):
        """One ``secrets`` draw of 8 bytes per glsn, never a seeded stream."""
        draws = []
        real = integrity.secrets.token_bytes
        monkeypatch.setattr(
            integrity.secrets, "token_bytes", lambda k: draws.append(k) or real(k)
        )
        IntegrityChecker(large_store).check_all()
        assert draws == [8 * len(large_store.glsns)]


class TestRingProtocol:
    def test_clean_round(self, populated_store):
        store, _, _ = populated_store
        reports = run_integrity_round(store)
        assert len(reports) == 5 and all(r.ok for r in reports)

    def test_detects_tamper(self, populated_store):
        store, _, receipts = populated_store
        store.node_store("P3").tamper(receipts[4].glsn, "C1", 0)
        reports = run_integrity_round(store)
        verdicts = {r.glsn: r.ok for r in reports}
        assert verdicts[receipts[4].glsn] is False
        assert sum(not ok for ok in verdicts.values()) == 1

    def test_message_cost_linear_in_nodes(self, populated_store):
        """One glsn check = n-1 passes + 1 done message."""
        store, _, receipts = populated_store
        net = SimNetwork()
        run_integrity_round(store, glsns=[receipts[0].glsn], net=net)
        n = len(store.stores)
        assert net.stats.messages == n  # (n-1) integ.pass + 1 integ.done

    def test_any_initiator(self, populated_store):
        store, _, receipts = populated_store
        for initiator in store.stores:
            reports = run_integrity_round(
                store, glsns=[receipts[0].glsn], initiator=initiator
            )
            assert reports[0].ok

    def test_unknown_initiator(self, populated_store):
        store, _, _ = populated_store
        with pytest.raises(ProtocolAbortError):
            run_integrity_round(store, initiator="P99")

    def test_agrees_with_in_process(self, populated_store):
        store, _, receipts = populated_store
        store.node_store("P1").tamper(receipts[1].glsn, "id", "Ux")
        ring = {r.glsn: r.ok for r in run_integrity_round(store)}
        local = {r.glsn: r.ok for r in IntegrityChecker(store).check_all()}
        assert ring == local


class TestWritePath:
    def test_append_is_one_fixed_base_power(self, populated_store, monkeypatch):
        """The anchor is the write path's only accumulator work: no pow, no
        per-append fold of a running log-wide value."""
        from repro.crypto import accumulator as acc_module

        store, ticket, _ = populated_store
        acc = store.accumulator
        folds = ("fold_product", "step", "step_many")
        calls = dict.fromkeys(("base_power", "pow") + folds, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("base_power",) + folds:
            monkeypatch.setattr(acc, name, counting(name, getattr(acc, name)))
        monkeypatch.setattr(acc_module, "pow", counting("pow", pow), raising=False)
        receipt = store.append({"id": "U9", "C1": 7, "C2": 3.5}, ticket)
        assert calls == dict.fromkeys(calls, 0) | {"base_power": 1}
        assert IntegrityChecker(store).check_glsn(receipt.glsn).ok

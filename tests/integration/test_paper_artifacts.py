"""Integration tests regenerating the paper's exact artifacts (T1-T6, F4).

These are the reproduction's ground truth: the rendered tables must match
the paper's rows, the Figure 4 walk-through must produce {e}, and the
glsn sequence must start at the paper's 0x139aef78.
"""

import pytest

from repro.crypto import AccumulatorParams, DeterministicRng, Operation
from repro.logstore import (
    DistributedLogStore,
    LogRecord,
    format_glsn,
    render_table,
)
from repro.smc.intersection import fig4_walkthrough
from repro.workloads import paper_table1_rows


@pytest.fixture()
def loaded(table1_plan, ticket_authority):
    store = DistributedLogStore(
        table1_plan,
        ticket_authority,
        AccumulatorParams.generate(128, DeterministicRng(b"paper")),
    )
    ticket = ticket_authority.issue("U1", {Operation.READ, Operation.WRITE})
    receipts = store.append_batch(paper_table1_rows(), ticket)
    return store, ticket, receipts


class TestTable1:
    def test_glsns_match_paper(self, loaded):
        _, _, receipts = loaded
        assert [format_glsn(r.glsn) for r in receipts] == [
            "139aef78", "139aef79", "139aef7a", "139aef7b", "139aef7c",
        ]
        # Note: the paper's Table 1 prints ...79 then ...80, i.e. it renders
        # *decimal-looking* increments in hex positions; our allocator is
        # faithfully monotone in hex (79 -> 7a).  Documented in EXPERIMENTS.md.

    def test_rendered_table_contains_all_values(self, loaded):
        _, _, receipts = loaded
        records = [
            LogRecord(r.glsn, row)
            for r, row in zip(receipts, paper_table1_rows())
        ]
        text = render_table(
            records, ["Time", "id", "protocl", "Tid", "C1", "C2", "C3"]
        )
        for needle in (
            "139aef78", "20:18:35/05/12/20", "U1", "UDP", "T1100265",
            "23.45", "signature", "678.75", "account",
        ):
            assert needle in text


class TestTables2To5:
    EXPECTED = {
        "P0": {"Time"},
        "P1": {"id", "C2"},
        "P2": {"Tid", "C3"},
        "P3": {"protocl", "C1"},
    }

    def test_fragment_contents(self, loaded):
        store, _, receipts = loaded
        for node_id, expected_attrs in self.EXPECTED.items():
            for receipt in receipts:
                frag = store.node_store(node_id).local_fragment(receipt.glsn)
                assert set(frag.values) == expected_attrs, node_id

    def test_row_values_preserved(self, loaded):
        store, _, receipts = loaded
        # Table 3's P1 column: C2 values in order.
        c2 = [
            store.node_store("P1").local_fragment(r.glsn).values["C2"]
            for r in receipts
        ]
        assert c2 == ["23.45", "345.11", "235.00", "45.02", "678.75"]
        # Table 5's P3 column: C1 values in order.
        c1 = [
            store.node_store("P3").local_fragment(r.glsn).values["C1"]
            for r in receipts
        ]
        assert c1 == [20, 34, 45, 18, 53]

    def test_reassembly_is_lossless(self, loaded, table1_plan):
        store, ticket, receipts = loaded
        for receipt, row in zip(receipts, paper_table1_rows()):
            assert store.read_record(receipt.glsn, ticket).values == row


class TestTable6:
    def test_access_table_shape(self, loaded):
        store, ticket, receipts = loaded
        acl = store.node_store("P0").acl
        assert acl.glsns_for(ticket.ticket_id) == {r.glsn for r in receipts}
        text = acl.render()
        assert "W/R" in text and "139aef78" in text

    def test_replicated_on_every_node(self, loaded):
        store, ticket, _ = loaded
        grants = {
            node_id: store.node_store(node_id).acl.glsns_for(ticket.ticket_id)
            for node_id in store.stores
        }
        assert len({frozenset(g) for g in grants.values()}) == 1


class TestFigure4:
    def test_walkthrough(self):
        transcript = fig4_walkthrough()
        assert transcript["sets"] == {
            "P1": ["c", "d", "e"], "P2": ["d", "e", "f"], "P3": ["e", "f", "g"],
        }
        assert transcript["intersection"] == ["e"]
        assert transcript["commutative_encodings_equal"] is True

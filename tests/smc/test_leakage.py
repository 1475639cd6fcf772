"""Tests for the leakage ledger (relaxed-SMC Definition 1 accounting)."""

import pytest

from repro.errors import SmcError
from repro.smc.leakage import LeakageLedger


class TestLedger:
    def test_record_and_query(self):
        ledger = LeakageLedger()
        ledger.record("proto", "P0", "set_size", "saw |S| = 5")
        ledger.record("proto", "P1", "set_size", "saw |S| = 3")
        ledger.record("proto", "ttp", "order_statistics", "sorted view")
        assert ledger.count() == 3
        assert ledger.count("set_size") == 2
        assert ledger.categories() == {"set_size", "order_statistics"}

    def test_by_observer(self):
        ledger = LeakageLedger()
        ledger.record("p", "P0", "set_size", "x")
        ledger.record("p", "*", "value_bound", "y")
        events = [e for e in ledger.events if e.observer in ("P0", "*")]
        assert len(events) == 2  # own + broadcast

    def test_primary_categories_rejected(self):
        ledger = LeakageLedger()
        for category in ("plaintext", "raw_value", "private_set_element"):
            with pytest.raises(SmcError):
                ledger.record("p", "P0", category, "must never happen")
        assert ledger.count() == 0

    def test_events_are_copies(self):
        ledger = LeakageLedger()
        ledger.record("p", "P0", "set_size", "x")
        events = ledger.events
        events.clear()
        assert ledger.count() == 1

"""Unit tests for message ids and the receiver-side dedup window."""

import pytest

from repro.errors import ConfigurationError
from repro.resilience import DedupWindow, MessageIdAllocator


class TestMessageIdAllocator:
    def test_ids_are_unique_and_monotonic(self):
        alloc = MessageIdAllocator("P0")
        ids = [alloc.next_id() for _ in range(5)]
        assert ids == ["P0#1", "P0#2", "P0#3", "P0#4", "P0#5"]

    def test_ids_embed_the_sender(self):
        assert MessageIdAllocator("P7").next_id().startswith("P7#")


class TestDedupWindow:
    def test_first_sighting_is_not_a_duplicate(self):
        window = DedupWindow()
        assert window.seen(("P0", "P1"), "P0#1") is False
        assert window.seen(("P0", "P1"), "P0#1") is True
        assert window.duplicates == 1

    def test_links_are_independent(self):
        window = DedupWindow()
        assert window.seen(("P0", "P1"), "P0#1") is False
        # Same id on a different directed link is a fresh delivery.
        assert window.seen(("P0", "P2"), "P0#1") is False
        assert window.seen(("P1", "P0"), "P0#1") is False

    def test_capacity_evicts_oldest(self):
        window = DedupWindow(capacity=3)
        link = ("P0", "P1")
        for i in range(4):
            window.seen(link, f"P0#{i}")
        # P0#0 fell out of the window; its re-delivery is not detected.
        assert window.seen(link, "P0#0") is False
        # The most recent ids are still remembered.
        assert window.seen(link, "P0#3") is True

    def test_duplicate_refreshes_recency(self):
        window = DedupWindow(capacity=2)
        link = ("P0", "P1")
        window.seen(link, "a")
        window.seen(link, "b")
        window.seen(link, "a")  # duplicate: moves "a" to the fresh end
        window.seen(link, "c")  # evicts "b", not "a"
        assert window.seen(link, "a") is True
        assert window.seen(link, "b") is False

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            DedupWindow(capacity=0)

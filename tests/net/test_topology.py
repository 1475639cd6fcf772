"""Tests for topology helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.net.topology import latency_ring, next_on_ring


class TestRing:
    def test_successor(self):
        nodes = ["P0", "P1", "P2"]
        assert next_on_ring(nodes, "P0") == "P1"
        assert next_on_ring(nodes, "P2") == "P0"  # wraps

    def test_successor_unknown(self):
        with pytest.raises(ConfigurationError):
            next_on_ring(["P0"], "P9")

    def test_single_node_ring(self):
        assert next_on_ring(["P0"], "P0") == "P0"


class TestLatencyRing:
    def test_greedy_prefers_cheap_links(self):
        latencies = {
            ("A", "B"): 1.0,
            ("B", "C"): 1.0,
            ("A", "C"): 100.0,
        }
        order = latency_ring(latencies)
        assert order == ["A", "B", "C"]

    def test_symmetric_fallback(self):
        order = latency_ring({("B", "A"): 1.0})
        assert set(order) == {"A", "B"}

    def test_empty(self):
        with pytest.raises(ConfigurationError):
            latency_ring({})

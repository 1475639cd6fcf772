"""Tests for cost accounting structures."""

import pytest

from repro.net.stats import CostReport, CryptoOpCounter, NetworkStats


class TestNetworkStats:
    def test_record(self):
        stats = NetworkStats()
        stats.record("ssi.relay", 100, "A", "B")
        stats.record("ssi.relay", 50, "B", "C")
        stats.record("ssi.full", 10, "C", "A")
        assert stats.messages == 3
        assert stats.bytes == 160
        assert stats.by_kind["ssi.relay"] == 2
        assert stats.bytes_by_kind["ssi.relay"] == 150
        assert stats.by_link[("A", "B")] == 1

    def test_snapshot_is_plain(self):
        stats = NetworkStats()
        stats.record("k", 5, "a", "b")
        snap = stats.snapshot()
        assert snap == {
            "messages": 1,
            "bytes": 5,
            "dropped": 0,
            "by_kind": {"k": 1},
            "bytes_by_kind": {"k": 5},
            "by_link": {"a->b": 1},
            "timings": {},
            "timing_calls": {},
            "connections_open": {},
            "reconnects": {},
        }

    def test_snapshot_is_json_safe(self):
        import json

        stats = NetworkStats()
        stats.record("k", 5, "a", "b")
        stats.record_drop()
        with stats.time_stage("stage"):
            pass
        assert json.loads(json.dumps(stats.snapshot())) == stats.snapshot()

    def test_time_stage_records_on_exception(self):
        stats = NetworkStats()
        with pytest.raises(ValueError):
            with stats.time_stage("boom"):
                raise ValueError("stage failed")
        # The failed pass is still timed — cost attribution must not lose
        # wall-clock to raised stages.
        assert stats.timing_calls["boom"] == 1
        assert stats.timings["boom"] >= 0.0

    def test_stage_timings(self):
        stats = NetworkStats()
        with stats.time_stage("ssi.encrypt"):
            pass
        stats.record_timing("ssi.encrypt", 0.25)
        assert stats.timing_calls["ssi.encrypt"] == 2
        assert stats.timings["ssi.encrypt"] >= 0.25
        assert stats.snapshot()["timings"]["ssi.encrypt"] == stats.timings["ssi.encrypt"]
        stats.reset()
        assert not stats.timings and not stats.timing_calls

    def test_reset(self):
        stats = NetworkStats()
        stats.record("k", 5, "a", "b")
        stats.record_drop()
        stats.reset()
        assert stats.messages == 0 and stats.dropped == 0 and not stats.by_kind

    def test_reset_clears_every_counter(self):
        stats = NetworkStats()
        stats.record("k", 5, "a", "b")
        stats.record_drop()
        stats.record_timing("stage", 0.5)
        stats.reset()
        empty = NetworkStats()
        assert stats.snapshot() == empty.snapshot()
        assert stats == empty


class TestMerge:
    def test_merge_folds_traffic_and_distributions(self):
        a, b = NetworkStats(), NetworkStats()
        a.record("x", 100, "A", "B")
        b.record("x", 50, "B", "C")
        b.record("y", 5000, "C", "A")
        b.record_drop()
        b.record_timing("ssi.encrypt", 0.5)
        a.merge(b)
        assert (a.messages, a.bytes, a.dropped) == (3, 5150, 1)
        assert dict(a.by_kind) == {"x": 2, "y": 1}
        assert dict(a.bytes_by_kind) == {"x": 150, "y": 5000}
        assert a.by_link[("C", "A")] == 1
        assert a.timings == {"ssi.encrypt": 0.5}
        assert a.timing_calls["ssi.encrypt"] == 1
        assert a.sizes.count == 3 and a.sizes.sum == 5150
        assert a.stage_seconds["ssi.encrypt"].count == 1
        assert b.messages == 2  # the source is left as it was

    def test_crypto_merge_folds_batch_sizes(self):
        a, b = CryptoOpCounter(), CryptoOpCounter()
        b.add("total.modexp", 4)
        b.batch_sizes.observe(4)
        a.merge(b)
        assert a.ops["total.modexp"] == 4
        assert (a.batch_sizes.count, a.batch_sizes.sum) == (1, 4)


class TestConnectionHealth:
    def test_connect_disconnect_tracks_pool(self):
        stats = NetworkStats()
        stats.record_connect("B")
        stats.record_connect("B")
        stats.record_connect("C")
        assert dict(stats.connections_open) == {"B": 2, "C": 1}
        stats.record_disconnect("B")
        assert dict(stats.connections_open) == {"B": 1, "C": 1}
        stats.record_disconnect("B")
        stats.record_disconnect("C")
        # Fully-closed peers disappear from the snapshot entirely.
        assert dict(stats.connections_open) == {}

    def test_reconnects_counted_separately(self):
        stats = NetworkStats()
        stats.record_connect("B")
        stats.record_disconnect("B")
        stats.record_connect("B", reconnect=True)
        assert dict(stats.connections_open) == {"B": 1}
        assert dict(stats.reconnects) == {"B": 1}

    def test_reset_keeps_live_pool_state(self):
        # connections_open mirrors sockets that are actually open; a stats
        # reset between queries must not desync the gauge from the pool.
        stats = NetworkStats()
        stats.record_connect("B")
        stats.record_connect("B", reconnect=True)
        stats.reset()
        assert dict(stats.connections_open) == {"B": 2}
        assert dict(stats.reconnects) == {}

    def test_metrics_gauge_and_counter(self):
        # The pool ledger is the only record; merging traffic into a
        # service-wide ledger leaves one transport's sockets behind.
        stats = NetworkStats()
        stats.record_connect("B")
        stats.record_connect("C", reconnect=True)
        stats.record_disconnect("B")
        stats.record("k", 10, "A", "C")
        total = NetworkStats()
        total.merge(stats)
        assert dict(stats.connections_open) == {"C": 1}
        assert dict(stats.reconnects) == {"C": 1}
        assert total.messages == 1
        assert not total.connections_open and not total.reconnects


class TestCryptoOpCounter:
    def test_modexp_aggregation(self):
        ops = CryptoOpCounter()
        ops.add("P0.modexp", 5)
        ops.add("P1.modexp", 3)
        ops.add("P0.hash", 100)
        assert ops.modexp == 8

    def test_reset(self):
        ops = CryptoOpCounter()
        ops.add("x.modexp")
        ops.reset()
        assert ops.modexp == 0


class TestCostReport:
    def test_collect(self):
        stats = NetworkStats()
        stats.record("k", 7, "a", "b")
        ops = CryptoOpCounter()
        ops.add("total.modexp", 11)
        report = CostReport.collect(stats, ops, virtual_time=1.5)
        assert report.messages == 1
        assert report.bytes == 7
        assert report.modexp == 11
        assert report.virtual_time == 1.5

    def test_collect_without_crypto(self):
        report = CostReport.collect(NetworkStats())
        assert report.crypto_ops == {} and report.modexp == 0

    def test_collect_includes_dropped(self):
        stats = NetworkStats()
        stats.record("k", 7, "a", "b")
        stats.record_drop()
        stats.record_drop()
        report = CostReport.collect(stats)
        assert report.dropped == 2
        assert report.messages == 1

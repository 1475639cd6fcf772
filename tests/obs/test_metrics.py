"""Unit tests for the metrics registry and Prometheus rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import BATCH_BUCKETS, MetricsRegistry
from repro.obs.metrics import Histogram


class TestCounterGauge:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.counter("hits").value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("hits").inc(-1)

    def test_labelled_instances_are_independent(self):
        reg = MetricsRegistry()
        reg.counter("msgs", labels={"kind": "a"}).inc()
        reg.counter("msgs", labels={"kind": "b"}).inc(2)
        assert reg.counter("msgs", labels={"kind": "a"}).value == 1
        assert reg.counter("msgs", labels={"kind": "b"}).value == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("m", labels={"a": 1, "b": 2}).inc()
        assert reg.counter("m", labels={"b": 2, "a": 1}).value == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")


class TestHistogram:
    def test_bucketing(self):
        h = Histogram((10, 100))
        for v in (5, 10, 50, 1000):
            h.observe(v)
        # bisect_left: 5,10 -> first bucket (<=10); 50 -> second; 1000 -> +Inf
        assert h.counts == [2, 1, 1]
        assert h.cumulative() == [2, 3, 4]
        assert h.count == 4
        assert h.sum == 1065

    def test_buckets_sorted_and_distinct(self):
        h = Histogram((100, 10))
        assert h.buckets == (10, 100)
        with pytest.raises(ConfigurationError):
            Histogram((10, 10))
        with pytest.raises(ConfigurationError):
            Histogram(())

    def test_merge_adds_counts_and_refuses_other_bounds(self):
        a, b = Histogram((10, 100)), Histogram((10, 100))
        a.observe(5)
        b.observe(50)
        b.observe(1000)
        a.merge(b)
        assert (a.counts, a.sum, a.count) == ([1, 1, 1], 1055, 3)
        with pytest.raises(ConfigurationError):
            a.merge(Histogram((10,)))

    def test_registry_fixes_buckets_at_family_creation(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("batch", buckets=BATCH_BUCKETS)
        h2 = reg.histogram("batch")  # same family: keeps original buckets
        assert h1 is h2
        assert h1.buckets == tuple(sorted(BATCH_BUCKETS))


class TestExport:
    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("repro_msgs_total", help="messages", labels={"kind": "x"}).inc(3)
        reg.histogram("repro_lat", buckets=(0.1, 1.0)).observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP repro_msgs_total messages" in text
        assert "# TYPE repro_msgs_total counter" in text
        assert 'repro_msgs_total{kind="x"} 3' in text
        assert 'repro_lat_bucket{le="0.1"} 0' in text
        assert 'repro_lat_bucket{le="1.0"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_sum 0.5" in text
        assert "repro_lat_count 1" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestExpositionHardening:
    def test_escape_label_value(self):
        from repro.obs.export import escape_label_value

        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value("plain") == "plain"

    def test_escape_help_text(self):
        from repro.obs.export import escape_help_text

        assert escape_help_text("line\nbreak") == "line\\nbreak"
        assert escape_help_text("back\\slash") == "back\\\\slash"
        # Quotes stay verbatim on HELP lines.
        assert escape_help_text('say "hi"') == 'say "hi"'

    def test_rendered_labels_and_help_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter(
            "odd_total",
            help="counts\nodd things",
            labels={"stage": 'enc "fast"\npath'},
        ).inc()
        text = reg.render_prometheus()
        assert "# HELP odd_total counts\\nodd things" in text
        assert 'odd_total{stage="enc \\"fast\\"\\npath"} 1' in text
        # Exactly one physical line per sample: nothing leaked a newline.
        assert all(
            line.startswith(("#", "odd_total")) for line in text.strip().splitlines()
        )

    def test_histogram_le_label_reserved(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.histogram("lat", buckets=(1, 2), labels={"le": "0.5"})

"""Tests for the JSONL exporter and the cost-attribution report."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Tracer,
    attribution_rows,
    export_jsonl,
    load_jsonl,
    loads_jsonl,
    render_attribution,
    render_tree,
    write_jsonl,
)


def _sample_trace() -> Tracer:
    clock_t = [0.0]

    def clock():
        clock_t[0] += 0.5
        return clock_t[0]

    tracer = Tracer(clock=clock)
    with tracer.span("run", {"messages": 10, "bytes": 500, "modexp": 7}):
        with tracer.span("stage-a", {"messages": 6, "bytes": 300, "modexp": 7}) as a:
            a.add_event("net.send", {"kind": "x"}, timestamp=1.0)
        with tracer.span("stage-b", {"messages": 4, "bytes": 200, "modexp": 0}):
            pass
    return tracer


class TestJsonlRoundTrip:
    def test_round_trip_exact(self):
        spans = _sample_trace().finished_spans()
        restored = loads_jsonl(export_jsonl(spans))
        assert restored == spans

    def test_file_round_trip(self, tmp_path):
        spans = _sample_trace().finished_spans()
        path = write_jsonl(spans, tmp_path / "trace.jsonl")
        assert load_jsonl(path) == spans

    def test_one_object_per_line_completion_order(self):
        spans = _sample_trace().finished_spans()
        lines = export_jsonl(spans).splitlines()
        assert len(lines) == 3
        import json

        assert [json.loads(l)["name"] for l in lines] == [
            "stage-a",
            "stage-b",
            "run",
        ]

    def test_malformed_line_raises(self):
        with pytest.raises(ConfigurationError):
            loads_jsonl('{"not a span": true}\n')
        with pytest.raises(ConfigurationError):
            loads_jsonl("not json\n")

    def test_blank_lines_skipped(self):
        spans = _sample_trace().finished_spans()
        text = "\n" + export_jsonl(spans) + "\n\n"
        assert loads_jsonl(text) == spans


class TestRenderTree:
    def test_tree_structure(self):
        out = render_tree(_sample_trace().finished_spans())
        lines = out.splitlines()
        assert lines[0].startswith("run")
        assert lines[1].startswith("  stage-a")
        assert lines[2].startswith("  stage-b")

    def test_tree_events(self):
        out = render_tree(_sample_trace().finished_spans(), include_events=True)
        assert "net.send" in out


class TestAttribution:
    def test_explicit_costs_win(self):
        rows = attribution_rows(_sample_trace().finished_spans())
        root = rows[0]
        assert (root["messages"], root["bytes"], root["modexp"]) == (10, 500, 7)
        assert root["of_parent"] == "—"

    def test_structural_span_sums_children(self):
        tracer = Tracer()
        with tracer.span("parent"):  # no cost attributes of its own
            with tracer.span("c1", {"messages": 3, "bytes": 30, "modexp": 1}):
                pass
            with tracer.span("c2", {"messages": 2, "bytes": 20, "modexp": 0}):
                pass
        rows = attribution_rows(tracer.finished_spans())
        parent = next(r for r in rows if r["name"] == "parent")
        assert (parent["messages"], parent["bytes"], parent["modexp"]) == (5, 50, 1)

    def test_percent_of_parent(self):
        rows = attribution_rows(_sample_trace().finished_spans())
        by_name = {r["name"]: r for r in rows}
        # stage-a: 1.0 of run's 2.5 (fake clock: each span open/close = 0.5)
        assert by_name["stage-a"]["of_parent"].endswith("%")

    def test_render_table(self):
        out = render_attribution(_sample_trace().finished_spans())
        lines = out.splitlines()
        assert lines[0].split() == [
            "span", "time", "ms", "%", "parent", "msgs", "bytes", "modexp", "events",
        ]
        assert "run" in out and "stage-a" in out

    def test_rows_follow_the_tree_depth_first(self):
        tracer = Tracer()
        with tracer.span("audit.query"):
            with tracer.span("sched.query"):
                with tracer.span("smc.union"):
                    pass
            with tracer.span("obs.collect"):
                pass
        rows = attribution_rows(tracer.finished_spans())
        assert [(r["name"], r["depth"]) for r in rows] == [
            ("audit.query", 0), ("sched.query", 1), ("smc.union", 2), ("obs.collect", 1),
        ]

    def test_empty_trace(self):
        assert render_attribution([]) == "(empty trace)"

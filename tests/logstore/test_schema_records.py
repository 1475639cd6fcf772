"""Tests for the global schema and log records."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError, UnknownAttributeError
from repro.logstore.records import LogRecord, format_glsn, render_table
from repro.logstore.schema import (
    Attribute,
    AttributeKind,
    GlobalSchema,
    paper_table1_schema,
)


class TestAttribute:
    def test_valid_names(self):
        Attribute("Time")
        Attribute("C1", AttributeKind.UNDEFINED)
        Attribute("snake_case_name")

    def test_invalid_names(self):
        for bad in ("", "has space", "semi;colon"):
            with pytest.raises(SchemaError):
                Attribute(bad)

    def test_undefined_flag(self):
        assert Attribute("C1", AttributeKind.UNDEFINED).is_undefined
        assert not Attribute("Time", AttributeKind.TIME).is_undefined

    def test_comparable(self):
        assert Attribute("n", AttributeKind.INTEGER).comparable
        assert Attribute("t", AttributeKind.TIME).comparable
        assert not Attribute("s", AttributeKind.TEXT).comparable


class TestGlobalSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            GlobalSchema([Attribute("a"), Attribute("a")])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            GlobalSchema([])

    def test_lookup(self):
        schema = GlobalSchema([Attribute("a"), Attribute("b")])
        assert "a" in schema and "z" not in schema
        assert schema.get("a").name == "a"
        with pytest.raises(UnknownAttributeError):
            schema.get("z")

    def test_validate_values(self):
        schema = GlobalSchema([Attribute("a")])
        schema.validate_values({"a": 1})
        with pytest.raises(UnknownAttributeError):
            schema.validate_values({"ghost": 1})

    def test_paper_schema_shape(self):
        schema = paper_table1_schema()
        assert schema.names[:7] == ["Time", "id", "protocl", "Tid", "C1", "C2", "C3"]
        assert {a.name for a in schema if a.is_undefined} == {"C1", "C2", "C3", "C4", "C5", "C"}


class TestLogRecord:
    def test_negative_glsn_rejected(self):
        with pytest.raises(SchemaError):
            LogRecord(glsn=-1)

    def test_project(self):
        record = LogRecord(1, {"a": 1, "b": 2})
        assert record.project(["a", "missing"]) == {"a": 1}

    def test_get_default(self):
        record = LogRecord(1, {"a": 1})
        assert record.get("a") == 1
        assert record.get("z", "fallback") == "fallback"

    def test_canonical_bytes_stable(self):
        a = LogRecord(5, {"x": 1, "y": "two"})
        b = LogRecord(5, {"y": "two", "x": 1})
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_canonical_bytes_value_sensitive(self):
        a = LogRecord(5, {"x": 1})
        b = LogRecord(5, {"x": 2})
        c = LogRecord(6, {"x": 1})
        assert a.canonical_bytes() != b.canonical_bytes()
        assert a.canonical_bytes() != c.canonical_bytes()

    def test_canonical_bytes_with_bytes_values(self):
        record = LogRecord(1, {"blob": b"\x00\xff"})
        assert b"00ff" in record.canonical_bytes()

    @given(
        glsn=st.integers(0, 2**64),
        values=st.dictionaries(
            st.sampled_from(paper_table1_schema().names),
            # Bounded sizes: unbounded text and bytes make single examples
            # slow enough to trip Hypothesis' too_slow check on a busy runner.
            st.one_of(
                st.text(max_size=64),
                st.integers(),
                st.floats(),
                st.none(),
                st.binary(max_size=64),
            ),
        ),
    )
    def test_canonical_bytes_match_json_dumps(self, glsn, values):
        """The shared encoder is byte-identical to a ``json.dumps`` per call."""
        body = {
            "glsn": glsn,
            "values": {
                k: {"__bytes__": v.hex()} if isinstance(v, bytes) else v
                for k, v in values.items()
            },
        }
        reference = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert LogRecord(glsn, values).canonical_bytes() == reference.encode()

    def test_format_glsn_matches_paper(self):
        assert format_glsn(0x139AEF78) == "139aef78"


class TestRenderTable:
    def test_shape(self):
        records = [
            LogRecord(0x10, {"a": "x", "b": 1}),
            LogRecord(0x11, {"a": "yy"}),
        ]
        text = render_table(records, ["a", "b"])
        lines = text.splitlines()
        assert lines[0].split() == ["glsn", "a", "b"]
        assert "10" in lines[2] and "yy" in lines[3]

    def test_empty_records(self):
        text = render_table([], ["a"])
        assert "glsn" in text

    def test_without_glsn(self):
        text = render_table([LogRecord(1, {"a": "v"})], ["a"], include_glsn=False)
        assert "glsn" not in text

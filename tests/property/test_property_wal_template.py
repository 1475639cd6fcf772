"""Property: a ``put`` frame written from the template is the frame the
generic codec writes, byte for byte, and replays to the record it framed.

``WriteAheadLog.encode_record`` builds the envelope of a ``put`` record
directly when the anchor is its only block, and hands every other record
to :func:`repro.net.codec.encode_payload`.  The inputs reach both sides of
that rule: string values heavy in escapes and non-ASCII, ints at the
±2^53 boundary, every kind of float, ``bytes``, nested lists and dicts,
anchors from 0 to 2^2048 and glsns on both sides of 2^53.  Example counts
come from the Hypothesis profile (``--hypothesis-profile=ci`` runs more).
"""

import math
import tempfile
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CodecError
from repro.net.codec import encode_payload
from repro.store import StoreConfig, WriteAheadLog
from repro.store.wal import _put_body

RESERVED = ("__int__", "__ints__", "__bytes__")
SAFE = 2**53

# Attribute names a schema accepts: non-empty, alphanumeric or "_".
keys = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Lo", "Nd")) | st.just("_"),
    min_size=1,
    max_size=12,
).filter(lambda k: k.replace("_", "").isalnum() and k not in RESERVED)
texts = st.text(
    alphabet=st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f \ud800é名😀'),
    max_size=24,
)
edge_ints = st.sampled_from(
    [SAFE - 1, SAFE, SAFE + 1, -(SAFE - 1), -SAFE, -(SAFE + 1), 0, -1]
)
floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
scalars = st.one_of(
    st.none(), st.booleans(), edge_ints, st.integers(-(2**70), 2**70), floats, texts,
)
nested = st.recursive(
    scalars | st.binary(max_size=16),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=12,
)
# Mostly template-shaped values (plain scalars), sometimes one that is not.
values = st.dictionaries(keys, scalars, max_size=8) | st.dictionaries(
    keys, scalars | st.binary(max_size=16) | nested, max_size=8
)
anchors = st.sampled_from([0, 1, SAFE - 1, SAFE, SAFE + 1, 2**2048]) | st.integers(0, 2**2048)
glsns = st.integers(SAFE - 4, SAFE + 4) | st.integers(0, 2**64)
rights = st.lists(st.sampled_from(["delete", "read", "write"]), max_size=3)


def frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + zlib.crc32(body).to_bytes(4, "big") + body


def put(glsn, values, anchor, ticket_id="t-1", rights=("read", "write")) -> dict:
    return {"op": "put", "glsn": glsn, "values": values, "anchor": anchor,
            "ticket_id": ticket_id, "rights": list(rights)}


def same(a, b) -> bool:
    """Equal, with types kept apart (``1``, ``True``, ``1.0``), ``nan``
    equal to itself and ``-0.0`` apart from ``0.0``."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1, a) == math.copysign(1, b)
        )
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def replayed(record: dict) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        wal = WriteAheadLog(directory, StoreConfig(fsync="off"))
        wal.append([record])
        wal.close()
        [entry] = WriteAheadLog(directory, StoreConfig(fsync="off")).replay().entries
    return entry


@settings(deadline=None)
@given(glsn=glsns, values=values, anchor=anchors, ticket_id=texts, rights=rights)
def test_template_frame_equals_the_generic_frame_and_replays(
    glsn, values, anchor, ticket_id, rights
):
    record = put(glsn, values, anchor, ticket_id, rights)
    encoded = WriteAheadLog.encode_record(record)
    assert encoded == frame(encode_payload(record))
    assert same(replayed(record), record)


@settings(deadline=None)
@given(
    key=st.sampled_from(RESERVED),
    value=nested,
    depth=st.sampled_from(["top", "list", "dict"]),
    anchor=anchors,
)
@example(key="__int__", value=1, depth="top", anchor=2**200)
def test_a_reserved_key_raises_the_same_error_on_both_paths(key, value, depth, anchor):
    inner = {key: value}
    values = {"top": inner, "list": {"a": [inner]}, "dict": {"a": {"b": inner}}}[depth]
    record = put(7, values, anchor)
    with pytest.raises(CodecError) as generic:
        encode_payload(record)
    with pytest.raises(CodecError) as template:
        WriteAheadLog.encode_record(record)
    assert str(template.value) == str(generic.value)


def test_a_non_str_key_raises_the_same_error_on_both_paths():
    record = put(7, {1: "x"}, 2**200)
    with pytest.raises(CodecError) as generic:
        encode_payload(record)
    with pytest.raises(CodecError) as template:
        WriteAheadLog.encode_record(record)
    assert str(template.value) == str(generic.value)


ANCHOR = 2**511 + 12345


@pytest.mark.parametrize(
    "record",
    [
        put(1, {"a": b"raw"}, ANCHOR),
        put(1, {"a": SAFE}, ANCHOR),
        put(1, {"a": -SAFE}, ANCHOR),
        put(1, {"a": [1, 2]}, ANCHOR),
        put(1, {"a": ["x"]}, ANCHOR),
        put(1, {"a": {"b": 1}}, ANCHOR),
        put(1, {"a": 1}, SAFE - 1),
        put(1, {"a": 1}, -ANCHOR),
        put(SAFE, {"a": 1}, ANCHOR),
        put(True, {"a": 1}, ANCHOR),
        put(1, {"a": 1}, ANCHOR, ticket_id=7),
        put(1, {"a": 1}, ANCHOR, rights=[1, 2]),
        {"op": "put", "glsn": 1, "anchor": ANCHOR, "values": {"a": 1},
         "ticket_id": "t", "rights": []},
        {"op": "put", "glsn": 1, "anchor": ANCHOR, "chain": None},
    ],
    ids=[
        "bytes-value", "int-at-2^53", "int-at-minus-2^53", "int-list", "str-list",
        "dict-value", "small-anchor", "negative-anchor",
        "glsn-at-2^53", "bool-glsn", "int-ticket-id", "int-rights",
        "other-key-order", "other-fields",
    ],
)
def test_each_fallback_writes_the_generic_frame(record):
    if tuple(record) == ("op", "glsn", "values", "anchor", "ticket_id", "rights"):
        assert _put_body(record) is None
    assert WriteAheadLog.encode_record(record) == frame(encode_payload(record))
    assert same(replayed(record), record)


def test_a_plain_put_is_written_from_the_template():
    record = put(SAFE - 1, {"a": SAFE - 1, "b": -0.0, "c": None, "d": "é\n"}, SAFE)
    assert _put_body(record) == encode_payload(record)

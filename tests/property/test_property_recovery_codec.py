"""Property: every pass recovery takes over the stored fragments writes
and reads the bytes the generic paths write and read.

Recovery decodes a checkpoint and the WALs, installs every fragment and
re-checkpoints it, and the audit digests every fragment again.  Each of
those passes is one C-level JSON call per record or fragment, beside the
generic path it replaces:

* a checkpoint's ``node`` record is written from a template
  (``repro.store.wal._node_body``) and must equal
  :func:`~repro.net.codec.encode_payload`, or defer to it — which raises
  the same :class:`CodecError` on a reserved key;
* a ``put`` frame is read without the codec's per-object hook
  (``repro.store.wal._put_record``) and must equal
  :func:`~repro.net.codec.decode_payload`, or defer to it on any other
  shape;
* a fragment's canonical bytes come from one C iterencoder and must
  equal the canonical JSON encoder's, with ``bytes`` values rendered as a
  :class:`LogRecord` renders them;
* int blocks whose elements are 1, 2, 4 or 8 bytes wide convert as one
  machine array and must round-trip every value at the width boundaries.

The digest exponents below were computed before any of these passes
existed.  Example counts come from the Hypothesis profile
(``--hypothesis-profile=ci`` runs more).
"""

import math
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CodecError
from repro.logstore.fragmentation import Fragment
from repro.logstore.records import _CANONICAL_JSON, LogRecord
from repro.net.codec import decode_payload, encode_payload
from repro.store import WriteAheadLog
from repro.store.wal import _node_body, _put_record, read_records

RESERVED = ("__int__", "__ints__", "__bytes__")
SAFE = 2**53

keys = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Lo", "Nd")) | st.just("_"),
    min_size=1,
    max_size=10,
).filter(lambda k: k not in RESERVED)
texts = st.text(
    alphabet=st.characters() | st.sampled_from('"\\/\b\n\t\x00\x7f\ud800é名😀},{'),
    max_size=20,
)
floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
edge_ints = st.sampled_from([SAFE - 1, SAFE, SAFE + 1, -(SAFE - 1), -SAFE, 0, -1])
scalars = st.one_of(
    st.none(), st.booleans(), edge_ints, st.integers(-(2**70), 2**70), floats, texts,
)
plain_rows = st.dictionaries(keys, scalars, max_size=5)
rows = plain_rows | st.dictionaries(
    keys,
    scalars | st.binary(max_size=8) | st.lists(st.integers(-300, 2**70), max_size=3),
    max_size=5,
)
# 0-, 1- and 2-or-more-element glsn lists, on both sides of 2^53.
glsn_lists = st.lists(st.integers(0, 2**40) | st.integers(SAFE - 2, SAFE + 2), max_size=6)
anchors = st.integers(0, 2**512)
acl_entries = st.lists(
    st.tuples(texts, st.lists(st.sampled_from(["delete", "read", "write"]), max_size=3),
              glsn_lists).map(list),
    max_size=3,
)


def frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + zlib.crc32(body).to_bytes(4, "big") + body


def node(values, glsns=None, anchor_list=None, acl=(), name="P1") -> dict:
    glsns = list(range(len(values))) if glsns is None else glsns
    anchor_list = [2**300 + g for g in glsns] if anchor_list is None else anchor_list
    return {"op": "node", "node": name, "glsns": glsns, "anchors": anchor_list,
            "values": values, "acl": list(acl)}


def put(glsn, values, anchor, ticket_id="t-1", rights=("read", "write")) -> dict:
    return {"op": "put", "glsn": glsn, "values": values, "anchor": anchor,
            "ticket_id": ticket_id, "rights": list(rights)}


def same(a, b) -> bool:
    """Equal, with types kept apart and ``nan`` equal to itself."""
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


def outcome(decode, body):
    try:
        return "value", decode(body)
    except CodecError as error:
        return "error", str(error)


def read_one(body: bytes):
    return next(read_records(frame(body), "test"))


# -- the checkpoint's node record ------------------------------------------


@settings(deadline=None)
@given(
    values=st.lists(rows, max_size=4),
    glsns=glsn_lists,
    anchor_list=st.lists(anchors, max_size=4),
    acl=acl_entries,
)
@example(values=[], glsns=[], anchor_list=[], acl=[])
@example(values=[{"a": 1}], glsns=[5], anchor_list=[2**300], acl=[["t", ["read"], [5]]])
@example(values=[{"a": 1}, {"b": "x"}], glsns=[5, 6], anchor_list=[2**300, 3],
         acl=[["t", ["read", "write"], [5, 6]], ["u", [], []]])
def test_node_template_equals_the_codec(values, glsns, anchor_list, acl):
    record = node(values, glsns, anchor_list, acl)
    body = encode_payload(record)
    assert WriteAheadLog.encode_record(record) == frame(body)
    template = _node_body(record)
    assert template is None or template == body
    assert same(read_one(body), decode_payload(body))


@settings(deadline=None)
@given(values=st.lists(plain_rows.filter(lambda r: all(
    type(v) is not int or -SAFE < v < SAFE for v in r.values())), max_size=4))
def test_plain_values_are_written_from_the_template(values):
    record = node(values)
    assert _node_body(record) == encode_payload(record)


@pytest.mark.parametrize(
    "row",
    [{"a": b"raw"}, {"a": SAFE}, {"a": -(SAFE + 5)}, {"a": 2**600}, {"a": [1, 2]},
     {"a": {"b": 1}}, {"a": True, "b": [None]}],
    ids=["bytes", "int-at-2^53", "int-below-minus-2^53", "big-int", "int-list",
         "dict", "list"],
)
def test_a_value_that_needs_the_codec_is_written_by_it(row):
    record = node([{"x": 1}, row])
    assert _node_body(record) is None
    assert WriteAheadLog.encode_record(record) == frame(encode_payload(record))
    assert same(read_one(encode_payload(record)), record)


@settings(deadline=None)
@given(key=st.sampled_from(RESERVED), nested=st.booleans())
def test_a_reserved_key_raises_the_same_error_on_both_paths(key, nested):
    row = {"a": {key: 1}} if nested else {key: 1}
    record = node([{"x": 1}, row])
    with pytest.raises(CodecError) as generic:
        encode_payload(record)
    with pytest.raises(CodecError) as template:
        WriteAheadLog.encode_record(record)
    assert str(template.value) == str(generic.value)


def test_a_non_str_key_raises_the_same_error_on_both_paths():
    record = node([{1: "x"}])
    with pytest.raises(CodecError) as generic:
        encode_payload(record)
    with pytest.raises(CodecError) as template:
        WriteAheadLog.encode_record(record)
    assert str(template.value) == str(generic.value)


# -- the put reader ---------------------------------------------------------


@settings(deadline=None)
@given(
    glsn=st.integers(0, 2**64),
    values=rows,
    anchor=st.integers(0, 2**2048),
    ticket_id=texts,
    rights=st.lists(st.sampled_from(["delete", "read", "write"]), max_size=3),
)
def test_the_put_reader_equals_the_codec_on_every_frame(glsn, values, anchor, ticket_id, rights):
    record = put(glsn, values, anchor, ticket_id, rights)
    body = WriteAheadLog.encode_record(record)[8:]
    fast = _put_record(body)
    assert fast is None or same(fast, decode_payload(body))
    assert same(read_one(body), decode_payload(body))


def test_a_template_put_is_read_without_the_codec():
    record = put(7, {"a": 1, "b": "é", "c": None, "d": 1.5}, 2**300)
    body = WriteAheadLog.encode_record(record)[8:]
    assert same(_put_record(body), record)


def handmade(head: str | bytes, blocks: bytes = b"") -> bytes:
    envelope = head.encode("utf-8") if isinstance(head, str) else head
    return len(envelope).to_bytes(4, "big") + envelope + blocks


PUT = '{{"op":"put","glsn":{glsn},"values":{values},"anchor":{anchor},' \
      '"ticket_id":{ticket},"rights":{rights}}}'


def put_head(glsn="1", values='{"a":1}', anchor='{"__int__":2}', ticket='"t"',
             rights='["read"]') -> str:
    return PUT.format(glsn=glsn, values=values, anchor=anchor, ticket=ticket, rights=rights)


NEAR_MISSES = {
    "anchor-width-short": handmade(put_head(), b"\x01\x02\x03"),
    "anchor-width-long": handmade(put_head(), b"\x01"),
    "anchor-width-zero": handmade(put_head(anchor='{"__int__":0}')),
    "anchor-width-negative": handmade(put_head(anchor='{"__int__":-2}'), b"\xff\xfe"),
    "anchor-width-bool": handmade(put_head(anchor='{"__int__":true}'), b"\x01"),
    "anchor-width-float": handmade(put_head(anchor='{"__int__":2.0}'), b"\x01\x02"),
    "anchor-two-keys": handmade(put_head(anchor='{"__int__":2,"x":1}'), b"\x01\x02"),
    "anchor-inline": handmade(put_head(anchor="5")),
    "empty-bytes-value": handmade(put_head(values='{"a":{"__bytes__":0}}'), b"\x01\x02"),
    "bytes-value": handmade(put_head(values='{"a":{"__bytes__":1}}'), b"\x09\x01\x02"),
    "ints-value": handmade(put_head(values='{"a":{"__ints__":[2,1]}}'), b"\x01\x02\x01\x02"),
    "escaped-reserved-key": handmade(
        put_head(values='{"\\u005f_int__":0}'), b"\x01\x02"
    ),
    "reserved-key-among-others": handmade(
        put_head(values='{"__int__":1,"b":2}'), b"\x01\x02"
    ),
    "values-placeholder": handmade(put_head(values='{"__bytes__":1}'), b"\x09\x01\x02"),
    "glsn-placeholder": handmade(put_head(glsn='{"__int__":1}'), b"\x07\x01\x02"),
    "ticket-placeholder": handmade(put_head(ticket='{"__bytes__":1}'), b"\x07\x01\x02"),
    "rights-placeholder": handmade(put_head(rights='[{"__int__":1}]'), b"\x07\x01\x02"),
    "rights-block": handmade(put_head(rights='{"__ints__":[2,1]}'), b"\x07\x08\x01\x02"),
    "keys-reordered": handmade(
        '{"glsn":1,"op":"put","values":{},"anchor":{"__int__":2},'
        '"ticket_id":"t","rights":[]}', b"\x01\x02"
    ),
    "extra-field": handmade(put_head()[:-1] + ',"chain":null}', b"\x01\x02"),
    "not-utf8": handmade(put_head(values='{"a":"X"}').encode().replace(b"X", b"\xff"),
                         b"\x01\x02"),
    "lone-surrogate": handmade(
        put_head(values='{"a":"X"}').encode().replace(b"X", b"\xed\xa0\x80"), b"\x01\x02"
    ),
    "not-json": handmade('{"op":"put",', b"\x01\x02"),
    "envelope-past-the-end": (10_000).to_bytes(4, "big") + b'{"op":"put","glsn":1}',
    "deep-nesting": handmade('{"op":"put","glsn":' + "[" * 100_000 + "]" * 100_000 + "}"),
}


@pytest.mark.parametrize("body", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_a_near_miss_frame_is_left_to_the_codec(body):
    assert _put_record(body) is None
    expected = outcome(decode_payload, body)
    got = outcome(read_one, body)
    assert got[0] == expected[0]
    assert got[0] == "error" or same(got[1], expected[1])


# -- canonical bytes and digests ---------------------------------------------


def reference_canonical_bytes(fragment: Fragment) -> bytes:
    """The canonical bytes as first defined: a ``bytes`` value renders the
    fragment through :class:`LogRecord`, anything else through the
    canonical JSON encoder."""
    values = fragment.values
    if any(isinstance(value, bytes) for value in values.values()):
        record = LogRecord(glsn=fragment.glsn, values=values)
        return fragment.node_id.encode("utf-8") + b"|" + record.canonical_bytes()
    body = _CANONICAL_JSON.encode(values)
    return f'{fragment.node_id}|{{"glsn":{fragment.glsn},"values":{body}}}'.encode()


@settings(deadline=None)
@given(
    node_id=st.sampled_from(["P0", "P1", "Pé", "node 7"]),
    glsn=st.integers(0, 2**70),
    values=st.dictionaries(keys, scalars | st.binary(max_size=8), max_size=6),
)
def test_canonical_bytes_equal_the_canonical_json(node_id, glsn, values):
    fragment = Fragment(glsn=glsn, node_id=node_id, values=values)
    assert fragment.canonical_bytes() == reference_canonical_bytes(fragment)


def test_a_value_json_cannot_encode_raises_a_type_error():
    fragment = Fragment(glsn=1, node_id="P0", values={"a": {1, 2}})
    with pytest.raises(TypeError):
        fragment.canonical_bytes()


def test_a_circular_value_raises_and_does_not_hang():
    values: dict = {"a": 1}
    values["self"] = [values]
    with pytest.raises((ValueError, RecursionError)):
        Fragment(glsn=1, node_id="P0", values=values).canonical_bytes()
    with pytest.raises((ValueError, RecursionError)):
        WriteAheadLog.encode_record(node([values]))
    # The encoder is shared across calls: a failed one leaves nothing behind.
    assert Fragment(glsn=1, node_id="P0", values={"a": [1]}).canonical_bytes() == (
        b'P0|{"glsn":1,"values":{"a":[1]}}'
    )


#: ``Fragment.digest_exponent()`` of each (node, glsn, values), pinned.
DIGEST_VECTORS = [
    ("P0", 0, {}, 285936462326686815648176666370856342065),
    ("P1", 1, {"C2": 7, "EID": -3, "id": "u1"}, 272231536332881601233630095391645201847),
    ("P2", 2**53 + 1, {"b": True, "a": None, "c": 1.5},
     298862124463412807443372067645101987759),
    ("P3", 42, {"t": 'é名😀\n"\\', "z": -0.0}, 322375721257672237055498318185639079721),
    ("P0", 5, {"x": math.nan, "y": math.inf, "w": -math.inf},
     289080645890343740567593751859160681787),
    ("P1", 6, {"raw": b"\x00\xffab", "n": 2**70}, 334965382833662481558473443000957856855),
    ("Pé", 9, {"k": [1, "two", None], "d": {"q": 1}},
     264862216272447262282675401631288973117),
]


@pytest.mark.parametrize("node_id,glsn,values,exponent", DIGEST_VECTORS)
def test_digest_exponents_are_pinned(node_id, glsn, values, exponent):
    assert Fragment(glsn=glsn, node_id=node_id, values=values).digest_exponent() == exponent


# -- int blocks of machine widths ----------------------------------------------

WIDTH_EDGES = [
    values
    for bits in (8, 16, 32, 64)
    for values in (
        [0, 2**bits - 1],
        [2 ** (bits - 8), 2**bits - 1],
        [-(2 ** (bits - 1)), 2 ** (bits - 1) - 1],
        [-1, 0, 1],
        [-(2 ** (bits - 1)) - 1, 5],
        [2**bits, 1],
    )
]


@pytest.mark.parametrize("values", WIDTH_EDGES)
def test_int_blocks_round_trip_at_every_machine_width(values):
    body = encode_payload({"v": values})
    assert decode_payload(body) == {"v": values}


@settings(deadline=None)
@given(st.lists(st.integers(-(2**70), 2**70) | st.integers(-300, 300), min_size=2, max_size=20))
def test_int_blocks_round_trip(values):
    assert decode_payload(encode_payload(values)) == values

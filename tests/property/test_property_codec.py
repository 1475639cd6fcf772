"""Property-based fuzzing of the wire codec and of the WAL records it frames.

One suite for the whole body format: round-trips, ``encoded_size`` equal to
the encoded length, the all-int list block, the closed form of an
integrity token, malformed bodies, and a torn binary WAL record.  Example
counts come from the Hypothesis profile, so
``--hypothesis-profile=ci`` (registered in ``tests/conftest.py``) runs the
module with more examples.
"""

import json
import tempfile

from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.net.codec import (
    decode_frames,
    decode_message,
    decode_payload,
    encode_frame,
    encode_message,
    encode_payload,
    encoded_size,
)
from repro.net.message import Message
from repro.store import StoreConfig, WriteAheadLog

RESERVED = ("__int__", "__ints__", "__bytes__")

# Integers clustered around the interesting magnitudes: zero, small, the
# +/-2^53 JSON boundary, and genuinely big group elements of both signs.
boundary = st.sampled_from(
    [0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) + 1, -(2**53), -(2**53) - 1]
)
big = st.integers(min_value=2**53, max_value=2**600)
any_int = st.one_of(
    boundary,
    big,
    big.map(lambda v: -v),
    st.integers(min_value=-(2**60), max_value=2**60),
)
int_lists = st.lists(any_int, max_size=30)
# At least two elements of one byte length w, as a group's elements are.
group_elements = st.integers(7, 75).flatmap(
    lambda w: st.lists(st.integers(2 ** (8 * w - 1), 2 ** (8 * w) - 1), min_size=2, max_size=30)
)

# JSON-safe payload values our codec must round-trip exactly.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    any_int,
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
payloads = st.recursive(
    scalars | int_lists,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(
            st.text(max_size=10).filter(lambda k: k not in RESERVED),
            children,
            max_size=5,
        ),
    ),
    max_leaves=25,
)

identifiers = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)


def message(payload) -> Message:
    return Message(src="a", dst="b", kind="k", payload=payload)


def envelope_of(body: bytes) -> dict:
    return json.loads(body[4 : 4 + int.from_bytes(body[:4], "big")])


class TestCodecProperties:
    @settings(deadline=None)
    @given(src=identifiers, dst=identifiers, kind=identifiers, payload=payloads)
    def test_roundtrip(self, src, dst, kind, payload):
        msg = Message(src=src, dst=dst, kind=kind, payload=payload)
        out = decode_message(encode_message(msg))
        assert (out.src, out.dst, out.kind) == (src, dst, kind)
        assert out.payload == payload
        assert decode_payload(encode_payload(payload)) == payload

    @settings(deadline=None)
    @given(payload=payloads, trace_id=st.none() | identifiers)
    def test_encoded_size_is_the_encoded_length(self, payload, trace_id):
        msg = Message(src="P1", dst="P2", kind="k", payload=payload, trace_id=trace_id)
        assert encoded_size(msg) == len(encode_message(msg))

    @settings(deadline=None)
    @given(key=st.sampled_from(RESERVED), value=payloads, nested=st.booleans())
    def test_reserved_keys_rejected(self, key, value, nested):
        payload = {"outer": [{key: value}]} if nested else {key: value}
        for encode in (lambda p: encode_message(message(p)), encode_payload,
                       lambda p: encoded_size(message(p))):
            try:
                encode(payload)
            except CodecError:
                continue
            raise AssertionError(f"reserved key {key!r} was encoded")

    @settings(deadline=None)
    @given(payloads_list=st.lists(payloads, min_size=1, max_size=5))
    def test_frame_stream(self, payloads_list):
        buffer = bytearray()
        for i, payload in enumerate(payloads_list):
            buffer += encode_frame(
                Message(src="a", dst="b", kind=f"k{i}", payload=payload)
            )
        out = decode_frames(buffer)
        assert [m.payload for m in out] == payloads_list
        assert not buffer

    @settings(deadline=None)
    @given(payload=payloads, cut=st.integers(1, 10))
    def test_partial_frames_never_corrupt(self, payload, cut):
        frame = encode_frame(message(payload))
        split = max(1, len(frame) - cut)
        buffer = bytearray(frame[:split])
        first = decode_frames(buffer)
        buffer += frame[split:]
        second = decode_frames(buffer)
        messages = first + second
        assert len(messages) == 1
        assert messages[0].payload == payload

    @settings(deadline=None)
    @given(payload=payloads, data=st.data())
    def test_truncated_or_bit_flipped_body_decodes_or_raises_codec_error(
        self, payload, data
    ):
        for body, decode in (
            (encode_message(message(payload)), decode_message),
            (encode_payload(payload), decode_payload),
        ):
            if data.draw(st.booleans(), label="truncate"):
                mutated = body[: data.draw(st.integers(0, len(body) - 1), label="cut")]
            else:
                bit = data.draw(st.integers(0, 8 * len(body) - 1), label="bit")
                flipped = bytearray(body)
                flipped[bit // 8] ^= 1 << (bit % 8)
                mutated = bytes(flipped)
            try:
                decode(mutated)
            except CodecError:
                pass


class TestBatchedCodecProperties:
    """The all-int list block: which lists qualify, and what they cost."""

    @settings(deadline=None)
    @given(values=int_lists)
    def test_roundtrip(self, values):
        out = decode_message(encode_message(message(values)))
        assert out.payload == values
        # Exact types too: no int drifting through float.
        assert all(type(v) is int for v in out.payload)

    @settings(deadline=None)
    @given(values=st.lists(st.one_of(any_int, st.booleans()), max_size=30))
    def test_batching_only_for_qualifying_lists(self, values):
        """A list is one block iff it has >= 2 elements, all ints (no bools)."""
        placeholder = envelope_of(encode_message(message(values)))["payload"]
        qualifies = len(values) >= 2 and all(type(v) is int for v in values)
        assert isinstance(placeholder, dict if qualifies else list)
        if qualifies:
            (count, width), = placeholder.values()
            assert list(placeholder) == ["__ints__"]
            # Two's complement needs one bit more than the largest magnitude.
            signed = min(values) < 0
            bits = max(max(values), ~min(values)).bit_length() + signed
            assert count == len(values)
            assert abs(width) == max(1, -(-bits // 8))
            assert (width < 0) == signed

    @settings(deadline=None)
    @given(values=group_elements)
    def test_batched_never_larger_than_legacy(self, values):
        """Elements of one byte length (a group's) cost less as one block."""
        batched = len(encode_message(message(values)))
        # The per-element form: each int alone in its own one-element list.
        per_element = len(encode_message(message([[v] for v in values])))
        assert batched < per_element

    @settings(deadline=None)
    @given(values=int_lists, tail=st.booleans())
    def test_nested_structures_roundtrip(self, values, tail):
        payload = {"sets": {"P1": values, "P2": list(reversed(values))}}
        if tail:
            payload["meta"] = [values, "label", None]
        assert decode_message(encode_message(message(payload))).payload == payload

    @settings(deadline=None)
    @given(values=st.lists(big, min_size=1, max_size=8))
    def test_legacy_peer_bodies_rejected(self, values):
        """The pre-binary JSON body with per-element hex wrappers is garbage
        to the binary decoder, and says so with a CodecError."""
        legacy = {"src": "a", "dst": "b", "kind": "k",
                  "payload": [{"__bigint__": format(v, "x")} for v in values]}
        try:
            decode_message(json.dumps(legacy).encode("utf-8"))
        except CodecError:
            return
        raise AssertionError("a legacy JSON body decoded")

    @settings(deadline=None)
    @given(
        glsns=st.lists(st.integers(1, 2**40), min_size=2, max_size=300, unique=True),
        data=st.data(),
    )
    def test_integrity_token_closed_form(self, glsns, data):
        """An ``integ.mpass`` frame over n glsns: a fixed envelope, the
        decimal digits of n, and n glsn-width plus n value-width bytes."""
        n = len(glsns)
        values = data.draw(
            st.lists(st.integers(0, 2**256 - 1), min_size=n, max_size=n), label="values"
        )
        values[0] |= 1 << 255  # the largest value fixes the width at 32 bytes
        msg = Message(
            src="P1", dst="P2", kind="integ.mpass",
            payload={"glsns": sorted(glsns), "values": values,
                     "remaining": ["P3", "P4"], "origin": "P1"},
        )
        glsn_width = -(-max(glsns).bit_length() // 8)
        # 4-byte envelope length + the envelope (148 fixed bytes, the two
        # widths included, and the decimal n twice) + the two blocks.
        expected = 4 + 148 + 2 * len(str(n)) + n * (glsn_width + 32)
        assert encoded_size(msg) == len(encode_message(msg)) == expected


class TestWalRecordProperties:
    @settings(deadline=None)
    @given(
        records=st.lists(
            st.fixed_dictionaries(
                {"op": st.just("put"), "glsn": st.integers(1, 2**40),
                 "anchor": st.integers(0, 2**256), "values": payloads}
            ),
            min_size=1, max_size=6,
        ),
        data=st.data(),
    )
    def test_replay_stops_at_the_last_intact_record(self, records, data):
        last = WriteAheadLog.encode_record(records[-1])
        cut = data.draw(st.integers(1, len(last) - 1), label="cut")
        with tempfile.TemporaryDirectory() as directory:
            wal = WriteAheadLog(directory, StoreConfig(fsync="off"))
            wal.append(records)
            wal.close()
            (segment,) = wal._segment_paths()
            segment.write_bytes(segment.read_bytes()[:-cut])
            replay = WriteAheadLog(directory, StoreConfig(fsync="off")).replay()
        assert replay.torn_tail
        assert replay.entries == records[:-1]

"""Tests for the wire codec (framing, big ints, bytes)."""

import json
import zlib

import pytest

from repro.errors import CodecError
from repro.net.codec import (
    decode_frames,
    decode_message,
    decode_payload,
    encode_frame,
    encode_message,
    encoded_size,
)
from repro.net.message import Message


def roundtrip(payload):
    msg = Message(src="A", dst="B", kind="k", payload=payload)
    return decode_message(encode_message(msg)).payload


def split_body(body: bytes) -> tuple[dict, bytes]:
    """A body's parsed JSON envelope and the block bytes after it."""
    end = 4 + int.from_bytes(body[:4], "big")
    return json.loads(body[4:end]), body[end:]


def make_body(envelope: bytes, blocks: bytes = b"") -> bytes:
    return len(envelope).to_bytes(4, "big") + envelope + blocks


def make_frame(body: bytes) -> bytes:
    """A frame whose CRC matches ``body``, whatever the body holds."""
    return len(body).to_bytes(4, "big") + zlib.crc32(body).to_bytes(4, "big") + body


class TestPayloadRoundtrip:
    def test_primitives(self):
        for payload in (None, 0, 1, -1, 3.5, "text", True, False):
            assert roundtrip(payload) == payload

    def test_big_ints(self):
        for value in (2**53, -(2**53), 2**256 + 12345, -(2**300)):
            assert roundtrip(value) == value

    def test_boundary_ints(self):
        for value in (2**53 - 1, -(2**53) + 1):
            assert roundtrip(value) == value

    def test_bytes(self):
        assert roundtrip(b"\x00\xff\x10raw") == b"\x00\xff\x10raw"
        assert roundtrip(b"") == b""

    def test_nested_structures(self):
        payload = {
            "list": [1, 2**200, "x", b"\x01"],
            "nested": {"deep": [{"n": 2**64}]},
        }
        assert roundtrip(payload) == payload

    def test_tuple_becomes_list(self):
        assert roundtrip((1, 2)) == [1, 2]

    def test_bools_stay_bools(self):
        out = roundtrip({"flag": True})
        assert out["flag"] is True

    def test_reserved_key_rejected(self):
        with pytest.raises(CodecError):
            roundtrip({"__int__": 32})

    def test_non_string_keys_rejected(self):
        with pytest.raises(CodecError):
            roundtrip({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(CodecError):
            roundtrip({"x": object()})


class TestMessageFields:
    def test_headers_preserved(self):
        msg = Message(src="P0", dst="P1", kind="ssi.relay", payload={"a": 1})
        out = decode_message(encode_message(msg))
        assert (out.src, out.dst, out.kind) == ("P0", "P1", "ssi.relay")

    def test_encoding_is_a_function_of_the_message(self):
        """No process-global counter on the wire: two equal messages built
        at different times encode to the same bytes."""
        first = encode_message(Message(src="a", dst="b", kind="k", payload=[1]))
        for _ in range(10):
            Message(src="x", dst="y", kind="k")
        assert encode_message(Message(src="a", dst="b", kind="k", payload=[1])) == first
        assert b'"seq"' not in first

    def test_size_stamped(self):
        msg = Message(src="a", dst="b", kind="k", payload="x" * 100)
        out = decode_message(encode_message(msg))
        assert out.size_bytes == encoded_size(msg)

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff\xfe not json")
        with pytest.raises(CodecError):
            decode_message(b"{}")

    def test_trace_context_round_trips(self):
        msg = Message(
            src="P0", dst="P1", kind="ssi.relay", payload={},
            trace_id="coord-t3", parent_span_id="P0:7",
        )
        out = decode_message(encode_message(msg))
        assert out.trace_id == "coord-t3"
        assert out.parent_span_id == "P0:7"

    def test_trace_context_omitted_when_unset(self):
        # Tracing off must cost zero wire bytes: no tid/psp keys at all.
        msg = Message(src="P0", dst="P1", kind="k", payload={})
        encoded = encode_message(msg)
        assert b"tid" not in encoded and b"psp" not in encoded
        out = decode_message(encoded)
        assert out.trace_id is None and out.parent_span_id is None

    def test_reply_and_forwarded_preserve_trace_context(self):
        msg = Message(
            src="P0", dst="P1", kind="ssi.relay", payload={"x": 1},
            channel="q1", trace_id="coord-t1", parent_span_id="coord:2",
        )
        reply = msg.reply("ssi.done", {"ok": True})
        assert (reply.trace_id, reply.parent_span_id) == ("coord-t1", "coord:2")
        relayed = msg.forwarded("P2")
        assert (relayed.trace_id, relayed.parent_span_id) == ("coord-t1", "coord:2")


class TestFraming:
    def test_single_frame(self):
        msg = Message(src="a", dst="b", kind="k", payload=[1, 2, 3])
        buffer = bytearray(encode_frame(msg))
        out = decode_frames(buffer)
        assert len(out) == 1 and out[0].payload == [1, 2, 3]
        assert not buffer  # fully consumed

    def test_multiple_frames(self):
        buffer = bytearray()
        for i in range(5):
            buffer += encode_frame(Message(src="a", dst="b", kind="k", payload=i))
        out = decode_frames(buffer)
        assert [m.payload for m in out] == [0, 1, 2, 3, 4]

    def test_partial_frame_waits(self):
        frame = encode_frame(Message(src="a", dst="b", kind="k", payload="hello"))
        buffer = bytearray(frame[:-3])
        assert decode_frames(buffer) == []
        assert len(buffer) == len(frame) - 3  # untouched
        buffer += frame[-3:]
        assert len(decode_frames(buffer)) == 1

    def test_length_bomb_rejected(self):
        buffer = bytearray((1 << 30).to_bytes(4, "big") + b"x")
        with pytest.raises(CodecError):
            decode_frames(buffer)

    def test_bad_body_costs_one_frame_not_the_stream(self):
        """A frame whose CRC matches but whose body does not decode is
        skipped like a CRC mismatch: one callback, the next frame arrives."""
        good = Message(src="a", dst="b", kind="k", payload=[2**300, 1])
        stream = make_frame(make_body(b"[]")) + encode_frame(good)
        errors = []
        buffer = bytearray(stream)
        out = decode_frames(buffer, on_corrupt=errors.append)
        assert [m.payload for m in out] == [good.payload]
        assert len(errors) == 1 and isinstance(errors[0], CodecError)
        assert not buffer
        with pytest.raises(CodecError):
            decode_frames(bytearray(stream))


class TestMalformedBodies:
    """Every wrong-shaped or truncated body raises CodecError, nothing else."""

    @pytest.mark.parametrize("raw", [b"[]", b'"x"', b'{"payload": {"__bigint__": 5}}'])
    def test_bare_json_bodies(self, raw):
        for decode in (decode_message, decode_payload):
            with pytest.raises(CodecError):
                decode(raw)

    @pytest.mark.parametrize(
        "envelope",
        [
            b"[]",
            b'"x"',
            b'{"src": "a", "dst": "b"}',
            b'{"src": 1, "dst": "b", "kind": "k"}',
            b'{"src": "a", "dst": "b", "kind": "k", "payload": {"__int__": "ff"}}',
            b'{"src": "a", "dst": "b", "kind": "k", "payload": {"__ints__": 5}}',
            b'{"src": "a", "dst": "b", "kind": "k", "payload": {"__ints__": [-1, 1]}}',
            b'{"src": "a", "dst": "b", "kind": "k", "payload": {"__bytes__": [0]}}',
            b"{\xff}",
        ],
    )
    def test_wrong_shaped_envelopes(self, envelope):
        with pytest.raises(CodecError):
            decode_message(make_body(envelope))

    def test_truncated_block(self):
        body = encode_message(Message(src="a", dst="b", kind="k", payload=[2**255, 1]))
        for cut in (1, 32, 63):
            with pytest.raises(CodecError, match="truncated block"):
                decode_message(body[:-cut])
        with pytest.raises(CodecError, match="truncated envelope"):
            decode_message(body[:10])

    def test_trailing_bytes(self):
        body = encode_message(Message(src="a", dst="b", kind="k", payload=[2**255, 1]))
        with pytest.raises(CodecError, match="trailing"):
            decode_message(body + b"\x00")


class TestMessageHelpers:
    def test_reply_addresses_sender(self):
        msg = Message(src="A", dst="B", kind="req", payload=1)
        reply = msg.reply("resp", 2)
        assert (reply.src, reply.dst, reply.kind, reply.payload) == ("B", "A", "resp", 2)

    def test_forwarded_keeps_kind(self):
        msg = Message(src="A", dst="B", kind="ring", payload=[1])
        fwd = msg.forwarded("C")
        assert (fwd.src, fwd.dst, fwd.kind, fwd.payload) == ("B", "C", "ring", [1])

    def test_forwarded_new_payload(self):
        msg = Message(src="A", dst="B", kind="ring", payload=[1])
        fwd = msg.forwarded("C", payload=[2])
        assert fwd.payload == [2]


class TestBatchedBigInts:
    """All-int lists ride one fixed-width binary block."""

    BIG_LIST = [2**256 + i for i in range(5)]

    def test_roundtrip(self):
        assert roundtrip(self.BIG_LIST) == self.BIG_LIST

    def test_wire_form_is_batched(self):
        msg = Message(src="a", dst="b", kind="k", payload=self.BIG_LIST)
        envelope, blocks = split_body(encode_message(msg))
        assert envelope["payload"] == {"__ints__": [5, 33]}  # 257 bits -> 33 bytes
        assert blocks == b"".join(v.to_bytes(33, "big") for v in self.BIG_LIST)

    def test_mixed_magnitudes_and_signs(self):
        payload = [0, -1, 2**53, -(2**300), 7, 2**53 - 1]
        assert roundtrip(payload) == payload

    def test_small_int_lists_are_blocks_too(self):
        msg = Message(src="a", dst="b", kind="k", payload=[1, 2, 300])
        envelope, blocks = split_body(encode_message(msg))
        assert envelope["payload"] == {"__ints__": [3, 2]}
        assert blocks == b"\x00\x01\x00\x02\x01\x2c"

    def test_negative_blocks_are_twos_complement_with_negated_width(self):
        msg = Message(src="a", dst="b", kind="k", payload=[-128, 127])
        envelope, blocks = split_body(encode_message(msg))
        assert envelope["payload"] == {"__ints__": [2, -1]}
        assert blocks == b"\x80\x7f"
        assert roundtrip([-129, 0]) == [-129, 0]  # needs a second byte

    def test_bools_disable_batching(self):
        payload = [True, 2**200]
        out = roundtrip(payload)
        assert out == payload
        assert out[0] is True  # not coerced to 1

    def test_single_element_uses_legacy_form(self):
        """A one-element list is not a list block: its big int keeps the
        per-element form, a lone-int block."""
        msg = Message(src="a", dst="b", kind="k", payload=[2**200])
        envelope, blocks = split_body(encode_message(msg))
        assert envelope["payload"] == [{"__int__": 26}]
        assert blocks == (2**200).to_bytes(26, "big")

    def test_legacy_per_element_frames_rejected(self):
        """The pre-binary JSON body (one hex wrapper per element) no longer
        decodes: no deployed peer sends it."""
        legacy = {
            "src": "a",
            "dst": "b",
            "kind": "k",
            "payload": [{"__bigint__": format(v, "x")} for v in self.BIG_LIST],
        }
        with pytest.raises(CodecError):
            decode_message(json.dumps(legacy).encode("utf-8"))

    def test_batched_smaller_than_legacy(self):
        values = [2**512 + i for i in range(64)]
        batched = encoded_size(Message(src="a", dst="b", kind="k", payload=values))
        legacy = encoded_size(
            Message(src="a", dst="b", kind="k", payload=[[v] for v in values])
        )
        assert batched < legacy

    def test_batched_reserved_key_rejected(self):
        with pytest.raises(CodecError):
            roundtrip({"__ints__": [1, 32]})

    def test_nested_lists_batch_independently(self):
        payload = {"sets": [[2**100, 2**101], [5, 2**99]]}
        assert roundtrip(payload) == payload


class TestFrameSizeGuard:
    def test_oversized_frame_rejected(self, monkeypatch):
        from repro.net import codec

        monkeypatch.setattr(codec, "_MAX_FRAME", 128)
        with pytest.raises(CodecError):
            encode_frame(Message(src="a", dst="b", kind="k", payload="x" * 256))

    def test_limit_sized_frame_accepted(self):
        frame = encode_frame(Message(src="a", dst="b", kind="k", payload="y" * 64))
        assert len(decode_frames(bytearray(frame))) == 1

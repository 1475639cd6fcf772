"""Wire codec: length-prefixed JSON framing with big-int support.

The real-socket transport and the simulated network share one encoding so
byte counts are comparable.  JSON is the body format; Python's arbitrary-
precision ints (ciphertexts, shares, commitments routinely exceed 2^64) are
encoded losslessly as ``{"__bigint__": "<hex>"}`` wrappers, and ``bytes`` as
``{"__bytes__": "<hex>"}``.  Frames are ``4-byte big-endian length ||
4-byte CRC-32 of the body || body``; the checksum lets stream transports
*detect* payload corruption (a tampered or bit-flipped frame) instead of
dispatching garbage — the resilience layer then treats a corrupt frame as
a loss and repairs it by retransmission.

Batched fast path: an all-int list containing at least one big int — the
shape of every ciphertext vector the SMC ring protocols ship — encodes as
one flat ``{"__bigints__": ["<hex>", ...]}`` wrapper instead of a
per-element dict, cutting per-element framing overhead roughly 4×.
Decoding accepts both forms, so new readers remain wire-compatible with
frames produced by the legacy per-element encoder.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Callable

from repro.errors import CodecError
from repro.net.message import Message

__all__ = [
    "encode_message",
    "decode_message",
    "encode_frame",
    "decode_frames",
    "encode_payload",
    "decode_payload",
    "encoded_size",
    "FRAME_HEADER_BYTES",
]

_MAX_FRAME = 64 * 1024 * 1024  # 64 MiB guard against corrupted length prefixes
_JSON_SAFE_INT = 1 << 53       # beyond this, ints round-trip unreliably via JSON readers


_RESERVED_KEYS = ("__bigint__", "__bigints__", "__bytes__")


def _int_to_hex(value: int) -> str:
    sign = "-" if value < 0 else ""
    return sign + format(abs(value), "x")


def _hex_to_int(text: str) -> int:
    negative = text.startswith("-")
    return -int(text[1:], 16) if negative else int(text, 16)


def _batchable(value) -> bool:
    """All-int list (bools excluded) with at least one JSON-unsafe element."""
    if len(value) < 2:
        return False
    big = False
    for v in value:
        if type(v) is not int:
            return False
        if not big and not -_JSON_SAFE_INT < v < _JSON_SAFE_INT:
            big = True
    return big


def _pack(value: Any) -> Any:
    """Recursively wrap big ints and bytes into JSON-safe structures."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if -_JSON_SAFE_INT < value < _JSON_SAFE_INT:
            return value
        return {"__bigint__": _int_to_hex(value)}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        if _batchable(value):
            return {"__bigints__": [_int_to_hex(v) for v in value]}
        return [_pack(v) for v in value]
    if isinstance(value, dict):
        packed = {}
        for key, val in value.items():
            if not isinstance(key, str):
                raise CodecError(f"message dict keys must be str, got {key!r}")
            if key in _RESERVED_KEYS:
                raise CodecError(f"reserved key {key!r} in payload")
            packed[key] = _pack(val)
        return packed
    if value is None or isinstance(value, (str, float)):
        return value
    raise CodecError(f"cannot encode value of type {type(value)!r}")


def _unpack(value: Any) -> Any:
    """Inverse of :func:`_pack` (accepts batched and legacy big-int forms)."""
    if isinstance(value, list):
        return [_unpack(v) for v in value]
    if isinstance(value, dict):
        if set(value) == {"__bigint__"}:
            return _hex_to_int(value["__bigint__"])
        if set(value) == {"__bigints__"}:
            return [_hex_to_int(text) for text in value["__bigints__"]]
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        return {k: _unpack(v) for k, v in value.items()}
    return value


def encode_payload(value: Any) -> bytes:
    """Serialize one bare payload value (no message envelope).

    The same big-int/bytes wrapping as :func:`encode_message` — including
    the batched ``__bigints__`` fast path — so non-wire consumers (the
    durable store's write-ahead log) share the wire codec instead of
    inventing a second losslessly-big-int format.
    """
    try:
        return json.dumps(_pack(value), separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"failed to encode payload: {exc}") from exc


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`."""
    try:
        return _unpack(json.loads(data.decode("utf-8")))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"failed to decode payload: {exc}") from exc


def encode_message(msg: Message) -> bytes:
    """Serialize a message body (without frame header)."""
    try:
        body = {
            "src": msg.src,
            "dst": msg.dst,
            "kind": msg.kind,
            "payload": _pack(msg.payload),
        }
        if msg.msg_id is not None:
            body["mid"] = msg.msg_id
        if msg.channel is not None:
            body["ch"] = msg.channel
        if msg.trace_id is not None:
            body["tid"] = msg.trace_id
        if msg.parent_span_id is not None:
            body["psp"] = msg.parent_span_id
        return json.dumps(body, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"failed to encode message {msg.kind!r}: {exc}") from exc


def decode_message(data: bytes) -> Message:
    """Deserialize a message body produced by :func:`encode_message`."""
    try:
        body = json.loads(data.decode("utf-8"))
        msg = Message(
            src=body["src"],
            dst=body["dst"],
            kind=body["kind"],
            payload=_unpack(body.get("payload")),
        )
        msg.msg_id = body.get("mid")
        msg.channel = body.get("ch")
        msg.trace_id = body.get("tid")
        msg.parent_span_id = body.get("psp")
        msg.size_bytes = len(data)
        return msg
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"failed to decode message: {exc}") from exc


#: Bytes of frame header: 4-byte length + 4-byte CRC-32 of the body.
FRAME_HEADER_BYTES = 8


def encode_frame(msg: Message) -> bytes:
    """Serialize with a length + CRC-32 header for stream transports."""
    body = encode_message(msg)
    if len(body) > _MAX_FRAME:
        raise CodecError(f"frame too large: {len(body)} bytes")
    checksum = zlib.crc32(body) & 0xFFFFFFFF
    return len(body).to_bytes(4, "big") + checksum.to_bytes(4, "big") + body


def decode_frames(
    buffer: bytearray,
    on_corrupt: Callable[[CodecError], None] | None = None,
) -> list[Message]:
    """Pull every complete frame out of ``buffer`` (consumed in place).

    A frame whose CRC-32 does not match its body raises
    :class:`CodecError` — unless ``on_corrupt`` is given, in which case
    the bad frame is skipped (already consumed), the callback is invoked,
    and decoding continues with the next frame.  Transports pass a
    callback so one corrupted frame costs one message, not the
    connection.
    """
    messages = []
    while len(buffer) >= 4:
        length = int.from_bytes(buffer[:4], "big")
        if length > _MAX_FRAME:
            raise CodecError(f"frame length {length} exceeds limit")
        if len(buffer) < FRAME_HEADER_BYTES + length:
            break
        expected_crc = int.from_bytes(buffer[4:8], "big")
        body = bytes(buffer[FRAME_HEADER_BYTES : FRAME_HEADER_BYTES + length])
        del buffer[: FRAME_HEADER_BYTES + length]
        actual_crc = zlib.crc32(body) & 0xFFFFFFFF
        if actual_crc != expected_crc:
            error = CodecError(
                f"frame checksum mismatch: expected {expected_crc:#010x}, "
                f"got {actual_crc:#010x}"
            )
            if on_corrupt is None:
                raise error
            on_corrupt(error)
            continue
        messages.append(decode_message(body))
    return messages


def encoded_size(msg: Message) -> int:
    """Byte size of the message on the wire (body only, no frame header)."""
    return len(encode_message(msg))

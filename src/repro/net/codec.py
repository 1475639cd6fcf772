"""Wire codec: a JSON envelope followed by fixed-width binary element blocks.

The socket transport, the simulated network and the write-ahead log share
one encoding, so byte counts are comparable.  A body is ``envelope length
(4B BE) || envelope (UTF-8 JSON) || blocks``.  The envelope is the value as
JSON with each *block* replaced by a placeholder naming its shape; blocks
follow in placeholder order (depth-first), each a run of big-endian
elements of one width:

- an all-int list of ≥ 2 elements (bools excluded): ``{"__ints__": [count, width]}``;
- a lone int outside ±2^53 (JSON readers lose precision): ``{"__int__": width}``;
- ``bytes``: ``{"__bytes__": length}``, the raw bytes.

The width is ``⌈bit_length(max |v|)/8⌉`` (≥ 1); a block holding a negative
value is two's complement, one bit wider, and records its width negated.
So a body is ``4 + len(envelope) + Σ count × |width|`` bytes, which
:func:`encoded_size` computes from the layout it shares with
:func:`encode_message`, converting no element to bytes.

Frames are ``4-byte length || 4-byte CRC-32 of the body || body`` (both
big-endian); the checksum lets stream transports *detect* a corrupted
frame, a loss the resilience layer repairs by retransmission.  Every
malformed body raises :class:`CodecError`.
"""

from __future__ import annotations

import json
import sys
import zlib
from array import array
from itertools import repeat
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
_INT, _INTS, _BYTES = "__int__", "__ints__", "__bytes__"
_RESERVED_KEYS = (_INT, _INTS, _BYTES)
#: The one envelope encoder: ``json.dumps(..., separators=...)`` builds a
#: new ``JSONEncoder`` per call; ``encode`` keeps no state between calls.
_ENVELOPE_JSON = json.JSONEncoder(separators=(",", ":"))
_DECODE_ERRORS = (TypeError, ValueError, RecursionError)
#: Unsigned ``array`` typecode per element width a machine integer has
#: (the signed code is its lower case): such a block converts in one call.
_ARRAY_CODES = {array(code).itemsize: code for code in "BHIQ"}
_SWAP = sys.byteorder == "little"


def _array(code: str, signed: bool, elements) -> array:
    """An array of ``elements`` in big-endian byte order: built from ints,
    its ``tobytes()`` is their block; built from a block's bytes, its
    ``tolist()`` is the block's ints."""
    machine = array(code.lower() if signed else code, elements)
    if _SWAP:
        machine.byteswap()
    return machine


def _width(lo: int, hi: int) -> int:
    """Element width of a block spanning ``[lo, hi]``; negative = signed."""
    if lo >= 0:
        return (hi.bit_length() + 7) // 8 or 1
    return -((max(hi, ~lo).bit_length() + 8) // 8)


def _layout(value: Any, blocks: list) -> Any:
    """Envelope form of ``value``; appends ``(data, count, width)`` per block."""
    if value is None or isinstance(value, (bool, str, float)):
        return value
    if isinstance(value, int):
        if -_JSON_SAFE_INT < value < _JSON_SAFE_INT:
            return value
        blocks.append((int(value), 1, _width(value, value)))
        return {_INT: blocks[-1][2]}
    if isinstance(value, (list, tuple)):
        if len(value) > 1 and type(value[0]) is int and set(map(type, value)) == {int}:
            blocks.append((value, len(value), _width(min(value), max(value))))
            return {_INTS: [len(value), blocks[-1][2]]}
        return [_layout(v, blocks) for v in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str) or key in _RESERVED_KEYS:
                raise CodecError(f"payload dict key {key!r} is not a str or is reserved")
        return {key: _layout(val, blocks) for key, val in value.items()}
    if isinstance(value, bytes):
        blocks.append((value, len(value), 1))
        return {_BYTES: len(value)}
    raise CodecError(f"cannot encode value of type {type(value)!r}")


def _message_layout(msg: Message) -> tuple[bytes, list]:
    blocks: list = []
    envelope = {"src": msg.src, "dst": msg.dst, "kind": msg.kind,
                "payload": _layout(msg.payload, blocks)}
    extra = {"mid": msg.msg_id, "tid": msg.trace_id, "psp": msg.parent_span_id}
    envelope.update((key, value) for key, value in extra.items() if value is not None)
    return _dumps(envelope), blocks


def _dumps(envelope: Any) -> bytes:
    try:
        return _ENVELOPE_JSON.encode(envelope).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"failed to encode envelope: {exc}") from exc


def _body(head: bytes, blocks: list) -> bytes:
    parts = [len(head).to_bytes(4, "big"), head]
    for data, _, width in blocks:
        signed, width = width < 0, abs(width)
        if isinstance(data, bytes):
            parts.append(data)
        elif isinstance(data, int):
            parts.append(data.to_bytes(width, "big", signed=signed))
        elif width in _ARRAY_CODES:
            parts.append(_array(_ARRAY_CODES[width], signed, data).tobytes())
        elif signed:
            parts.extend(v.to_bytes(width, "big", signed=True) for v in data)
        else:
            parts.extend(map(int.to_bytes, data, repeat(width), repeat("big")))
    return b"".join(parts)


def encode_payload(value: Any) -> bytes:
    """Serialize a bare value (the write-ahead log's record body) in the same layout."""
    blocks: list = []
    return _body(_dumps(_layout(value, blocks)), blocks)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`: each placeholder takes the next
    block as the JSON parser closes it, which is placeholder (= block) order."""
    data = bytes(data)
    offset = 4 + int.from_bytes(data[:4], "big")
    if len(data) < 4 or offset > len(data):
        raise CodecError(f"truncated envelope in a {len(data)}-byte body")

    def take(obj: dict) -> Any:
        nonlocal offset
        key = next(iter(obj), None)
        if len(obj) != 1 or key not in _RESERVED_KEYS:
            return obj
        shape = obj[key]
        count, width = shape if key == _INTS else (1, shape) if key == _INT else (shape, 1)
        if type(count) is not int or type(width) is not int or count < 0 or not width:
            raise CodecError(f"malformed block shape {obj!r}")
        signed, width, start = width < 0, abs(width), offset
        offset += count * width
        if offset > len(data):
            raise CodecError(f"truncated block: {offset - len(data)} bytes short")
        if key == _BYTES:
            return data[start:offset]
        if key == _INT:
            return int.from_bytes(data[start:offset], "big", signed=signed)
        if width in _ARRAY_CODES:
            return _array(_ARRAY_CODES[width], signed, data[start:offset]).tolist()
        return [int.from_bytes(data[i : i + width], "big", signed=signed)
                for i in range(start, offset, width)]

    try:
        value = json.loads(data[4:offset].decode("utf-8"), object_hook=take)
    except _DECODE_ERRORS as exc:
        raise CodecError(f"failed to decode body: {exc!r}") from exc
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after blocks")
    return value


def encode_message(msg: Message) -> bytes:
    """Serialize a message body (without frame header)."""
    return _body(*_message_layout(msg))


def decode_message(data: bytes) -> Message:
    """Deserialize a message body produced by :func:`encode_message`."""
    body = decode_payload(data)
    get = body.get if type(body) is dict else {}.get
    if not type(get("src")) is type(get("dst")) is type(get("kind")) is str:
        raise CodecError(f"a {type(body).__name__} body is not a message envelope")
    return Message(get("src"), get("dst"), get("kind"), get("payload"), size_bytes=len(data),
                   msg_id=get("mid"), trace_id=get("tid"),
                   parent_span_id=get("psp"))


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

    A frame whose CRC-32 does not match its body, or whose body does not
    decode, raises :class:`CodecError` — unless ``on_corrupt`` is given:
    then the bad frame is skipped, the callback invoked, and decoding goes
    on, so one bad frame costs a transport one message, not the connection.
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
        try:
            if actual_crc != expected_crc:
                raise CodecError(f"frame checksum mismatch: expected "
                                 f"{expected_crc:#010x}, got {actual_crc:#010x}")
            messages.append(decode_message(body))
        except CodecError as error:
            if on_corrupt is None:
                raise
            on_corrupt(error)
    return messages


def encoded_size(msg: Message) -> int:
    """``len(encode_message(msg))`` from the layout alone (no block bytes)."""
    head, blocks = _message_layout(msg)
    return 4 + len(head) + sum(count * abs(width) for _, count, width in blocks)

"""Append-only write-ahead log over length-prefixed segment files.

One :class:`WriteAheadLog` per DLA node, under that node's directory.
Records are framed exactly like the wire codec's stream frames — 4-byte
big-endian length, 4-byte CRC-32 of the body, then the body — and the
body is the codec's binary body (:func:`repro.net.codec.encode_payload`:
a JSON envelope followed by fixed-width big-endian element blocks), so
accumulator anchors (arbitrary-precision ints) are stored as on the wire
instead of in a second ad-hoc format.  The store's checkpoint file is a
run of the same records (:mod:`repro.store.cluster`), and
:func:`read_records` is the one reader of both.

Segments rotate at ``StoreConfig.segment_bytes``; the *active* segment
takes appends, *sealed* segments are immutable and are what background
compaction folds into the next checkpoint.  Every append writes its
frames straight to the active segment — one frame per record, all of
one call's frames in one ``write`` — and when they reach the disk is the
``REPRO_STORE_FSYNC`` policy (see :mod:`repro.store.config`).

A ``put`` record — one per stored fragment, so most of what an ingest
writes — is framed from a template: its envelope is written around one
JSON encode of its ``values``, to the bytes the codec's generic walk
would write.  A record any of whose fields needs a block other than the
anchor's goes through :func:`encode_payload`.  A checkpoint's ``node``
record is framed likewise, its fragments' values in the one JSON encode
of the envelope when none needs a block; and :func:`read_records` reads
a template-shaped ``put`` frame back with one ``json.loads`` and the
anchor read by hand, every other frame with :func:`decode_payload`.

Replay tolerates a *torn tail*: a crash mid-write leaves the final
record of the last segment truncated or CRC-broken, and
:meth:`WriteAheadLog.replay` stops cleanly at the last intact record
instead of raising — the recovery layer then rolls the half-written
append back across the cluster.  A sealed segment was whole before the
next one was opened, and a checkpoint is renamed into place only once
whole, so the same damage in either is an error.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator

from repro.errors import LogStoreError
from repro.net.codec import (
    _ENVELOPE_JSON,
    _INT,
    _JSON_SAFE_INT,
    _RESERVED_KEYS,
    _body,
    _dumps,
    _layout,
    decode_payload,
    encode_payload,
)
from repro.obs.metrics import LATENCY_BUCKETS_SECONDS, Histogram
from repro.store.config import StoreConfig

__all__ = ["WriteAheadLog", "WalReplayReport", "RECORD_HEADER_BYTES", "read_records"]

#: 4-byte length prefix + 4-byte CRC-32, same shape as a wire frame.
RECORD_HEADER_BYTES = 8

_SEGMENT_GLOB = "wal-*.seg"

# A ``put`` record's fields, in the order the durable store writes them
# (the envelope's key order), and the value types JSON writes as-is.
_PUT_FIELDS = ("op", "glsn", "values", "anchor", "ticket_id", "rights")
_PLAIN = frozenset({str, float, bool, type(None)})
# A checkpoint's ``node`` record, likewise (:mod:`repro.store.cluster`).
_NODE_FIELDS = ("op", "node", "glsns", "anchors", "values", "acl")


def _segment_index(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


def _put_body(record: dict) -> bytes | None:
    """``encode_payload(record)`` for a ``put`` record whose one block is
    its anchor, without the codec's generic walk: the envelope is a
    template around one JSON encode of ``values``.  ``None`` — the caller
    then uses the codec — when another field would need a block (a
    ``bytes``, list or dict value, an int or glsn outside ±2^53), is not
    of a plain JSON type, or the anchor is not a block."""
    glsn, values, anchor = record["glsn"], record["values"], record["anchor"]
    ticket_id, rights = record["ticket_id"], record["rights"]
    if not (
        record["op"] == "put"
        and type(glsn) is int and -_JSON_SAFE_INT < glsn < _JSON_SAFE_INT
        and type(anchor) is int and anchor >= _JSON_SAFE_INT
        and type(values) is dict and type(ticket_id) is str and type(rights) is list
    ):
        return None
    for key, value in values.items():
        if type(key) is not str or key in _RESERVED_KEYS:
            return None
        if type(value) not in _PLAIN and not (
            type(value) is int and -_JSON_SAFE_INT < value < _JSON_SAFE_INT
        ):
            return None
    for right in rights:
        if type(right) is not str:
            return None
    encode = _ENVELOPE_JSON.encode
    width = (anchor.bit_length() + 7) // 8
    head = (
        f'{{"op":"put","glsn":{glsn},"values":{encode(values)},"anchor":{{"__int__":{width}}},'
        f'"ticket_id":{encode(ticket_id)},"rights":[{",".join(map(encode, rights))}]}}'
    ).encode()
    return len(head).to_bytes(4, "big") + head + anchor.to_bytes(width, "big")


def _plain_rows(rows: list) -> bool:
    """Whether the codec writes ``rows`` — a list of fragment values —
    as JSON with no block: every row a ``dict`` of ``str`` keys none of
    them reserved, every value a plain JSON scalar or an int inside
    ±2^53.  Each test is one C-level pass over all the rows at once."""
    if not set(map(type, rows)) <= {dict}:
        return False
    keys = set(chain.from_iterable(rows))
    if not keys.isdisjoint(_RESERVED_KEYS) or not set(map(type, keys)) <= {str}:
        return False
    flat = list(chain.from_iterable(map(dict.values, rows)))
    kinds = set(map(type, flat))
    if int in kinds:
        ints = [value for value in flat if type(value) is int]
        if not -_JSON_SAFE_INT < min(ints) <= max(ints) < _JSON_SAFE_INT:
            return False
        kinds.discard(int)
    return kinds <= _PLAIN


def _node_body(record: dict) -> bytes | None:
    """``encode_payload(record)`` for a checkpoint ``node`` record whose
    fragment values need no block, without the codec's walk over every
    fragment: the values list goes into the envelope as it is, so it is
    written by the one JSON encode of the envelope, and only the small
    fields (glsns, anchors, ACL) are laid out by the codec — their
    blocks are the record's blocks, in the same order.  ``None`` when a
    value is not plain (:func:`_plain_rows`): the caller then uses the
    codec, which also raises on a reserved key."""
    if not _plain_rows(record["values"]):
        return None
    blocks: list = []
    envelope = {
        "op": _layout(record["op"], blocks),
        "node": _layout(record["node"], blocks),
        "glsns": _layout(record["glsns"], blocks),
        "anchors": _layout(record["anchors"], blocks),
        "values": record["values"],
        "acl": _layout(record["acl"], blocks),
    }
    return _body(_dumps(envelope), blocks)


def _put_record(body: bytes) -> dict | None:
    """``decode_payload(body)`` for a body :func:`_put_body` could have
    written — the six ``put`` fields in order, the anchor's block the
    body's only one, no other field or value a dict or list a block
    could stand for — by one ``json.loads`` with no per-object hook and
    the anchor read by hand.  ``None`` for any other body: the caller
    then decodes it with the codec."""
    end = 4 + int.from_bytes(body[:4], "big")
    try:
        record = json.loads(body[4:end].decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if type(record) is not dict or tuple(record) != _PUT_FIELDS:
        return None
    anchor, values, rights = record["anchor"], record["values"], record["rights"]
    width = len(body) - end
    if not (
        type(anchor) is dict and tuple(anchor) == (_INT,)
        and type(anchor[_INT]) is int and anchor[_INT] == width > 0
        and type(values) is dict and values.keys().isdisjoint(_RESERVED_KEYS)
        and type(rights) is list
        and set(map(type, chain(
            (record["glsn"], record["ticket_id"]), values.values(), rights
        ))).isdisjoint((dict, list))
    ):
        return None
    record["anchor"] = int.from_bytes(body[end:], "big")
    return record


def read_records(data: bytes, name: str) -> Iterator[dict]:
    """Decode the framed records of one file's ``data``, in order; a frame
    cut short or failing its CRC raises :class:`LogStoreError` naming
    ``name`` and the frame's offset, after the intact records before it."""
    offset = 0
    while offset < len(data):
        if offset + RECORD_HEADER_BYTES > len(data):
            raise LogStoreError(
                f"{name}: {len(data) - offset} trailing bytes (torn header) "
                f"at offset {offset}"
            )
        length = int.from_bytes(data[offset : offset + 4], "big")
        end = offset + RECORD_HEADER_BYTES + length
        if end > len(data):
            raise LogStoreError(f"{name}: truncated record at offset {offset}")
        body = data[offset + RECORD_HEADER_BYTES : end]
        if zlib.crc32(body) != int.from_bytes(data[offset + 4 : offset + 8], "big"):
            raise LogStoreError(f"{name}: CRC mismatch at offset {offset}")
        record = _put_record(body) if body.startswith(b'{"op":"put",', 4) else None
        yield decode_payload(body) if record is None else record
        offset = end


@dataclass
class WalReplayReport:
    """What one node's WAL replay saw."""

    segments: int = 0
    records: int = 0
    #: True when the final segment ended in a truncated or CRC-broken
    #: record (the torn tail a crash leaves behind).
    torn_tail: bool = False
    detail: str = ""
    bytes_read: int = 0
    #: Decoded records, in append order.
    entries: list[dict] = field(default_factory=list)


class WriteAheadLog:
    """Per-node append-only log with rotation and replay.

    One :meth:`append` call is one ``write``, one flush and one
    ``append_seconds`` observation (``repro_store_wal_flush_seconds``),
    however many records it frames: a node's share of an ingest batch
    is one call.

    Thread-safe: appends, syncs, and resets serialize on one lock (the
    distributed write path already serializes appends, but compaction
    runs from a background thread).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        config: StoreConfig | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = config or StoreConfig()
        self._lock = threading.RLock()
        self._handle = None
        self._active_index = 0
        self._active_bytes = 0
        self._closed = False
        self._records_total = 0
        #: Wall time of each append call — one per node per ingest batch —
        #: write + the fsync policy.
        self.append_seconds = Histogram(LATENCY_BUCKETS_SECONDS)
        existing = self._segment_paths()
        if existing:
            self._active_index = _segment_index(existing[-1]) + 1
        #: Segments on disk other than the active one, kept across
        #: rotation and :meth:`reset` so nothing lists the directory per
        #: append: every segment found here is sealed (appends go to a
        #: new one past them).
        self._sealed = len(existing)

    # -- paths ---------------------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(self.directory.glob(_SEGMENT_GLOB), key=_segment_index)

    def _active_path(self) -> Path:
        return self.directory / f"wal-{self._active_index:08d}.seg"

    @property
    def sealed_segment_count(self) -> int:
        """Immutable segments on disk (excludes the active one)."""
        return self._sealed

    @property
    def records_appended(self) -> int:
        return self._records_total

    # -- writes --------------------------------------------------------------

    @staticmethod
    def encode_record(record: dict) -> bytes:
        """One record's frame: :func:`encode_payload`'s body, written from
        the ``put`` or ``node`` template when the record is one it covers."""
        fields = tuple(record)
        body = (
            _put_body(record) if fields == _PUT_FIELDS
            else _node_body(record) if fields == _NODE_FIELDS
            else None
        )
        if body is None:
            body = encode_payload(record)
        checksum = zlib.crc32(body) & 0xFFFFFFFF
        return len(body).to_bytes(4, "big") + checksum.to_bytes(4, "big") + body

    def append(self, records: list[dict | bytes]) -> None:
        """Write one frame per record to the active segment in one
        ``write`` (fsynced under the ``always`` policy), rotating once the
        segment is full — so rotation falls only between calls and no
        frame is split across segments.  A record may be given as the
        frame :meth:`encode_record` already made of it, so a writer can
        find a record the codec refuses before it changes anything."""
        encoded = b"".join(
            record if type(record) is bytes else self.encode_record(record)
            for record in records
        )
        with self._lock:
            if self._closed:
                raise LogStoreError(f"WAL {self.directory} is closed")
            started = time.monotonic()
            handle = self._ensure_handle()
            handle.write(encoded)
            handle.flush()
            if self.config.fsync == "always":
                os.fsync(handle.fileno())
            self._active_bytes += len(encoded)
            self._records_total += len(records)
            self.append_seconds.observe(time.monotonic() - started)
            if self._active_bytes >= self.config.segment_bytes:
                self._rotate_locked()

    def sync(self) -> None:
        """Force the active segment to disk (``batch`` policy's sync point)."""
        with self._lock:
            if self._handle is not None and self.config.fsync != "off":
                os.fsync(self._handle.fileno())

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self._active_path(), "ab")
            self._active_bytes = self._handle.tell()
        return self._handle

    def _rotate_locked(self) -> None:
        """Seal the active segment and open the next one."""
        if self._handle is not None:
            if self.config.fsync != "off":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
            self._sealed += 1
        self._active_index += 1
        self._active_bytes = 0

    # -- replay / truncation -------------------------------------------------

    def replay(self) -> WalReplayReport:
        """Decode every intact record currently on disk, in append order.

        Only the last segment can end in a torn tail; a damaged frame in a
        sealed one raises :class:`LogStoreError` naming the segment and
        the offset, as a damaged checkpoint does.
        """
        report = WalReplayReport()
        paths = self._segment_paths()
        for path in paths:
            report.segments += 1
            data = path.read_bytes()
            report.bytes_read += len(data)
            try:
                for record in read_records(data, str(path)):
                    report.entries.append(record)
                    report.records += 1
            except LogStoreError as torn:
                if path != paths[-1]:
                    raise LogStoreError(
                        f"{torn}, in a sealed segment (only the last can be torn)"
                    ) from torn
                report.torn_tail = True
                report.detail = str(torn)
        return report

    def reset(self) -> None:
        """Delete every segment (post-checkpoint truncation).

        The next append lands in a fresh segment whose index continues
        past the deleted ones, so segment names never repeat within one
        store directory.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            for path in self._segment_paths():
                path.unlink()
            self._sealed = 0
            self._active_index += 1
            self._active_bytes = 0

    def close(self) -> None:
        """Fsync (unless ``off``) and release the file handle."""
        with self._lock:
            if self._closed:
                return
            if self._handle is not None:
                if self.config.fsync != "off":
                    os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""The WAL's and the checkpoint's bytes are pinned: batching the write
path changed how often the WAL is written, never what is written, and
writing a checkpoint's ``node`` records from a template changed how they
are encoded, never the bytes.

Two hundred seeded rows are streamed into a fresh durable store; the
sha256 of each node's concatenated segments must equal the digest the
per-fragment write path produced for the same rows (the values below).
Segments are kept small so the WAL rotates several times; segment
boundaries may move — rotation falls between ``append`` calls — so the
digest is taken over the concatenation, in segment order.  The
``checkpoint.seg`` of the same rows must equal the one the codec's
generic walk wrote, as must that of a store whose ACL has a one-glsn
grant, whose fragments include a deleted, an evicted and a tampered one,
and one of whose node records holds a ``bytes`` value (so is written by
the codec).
"""

import hashlib
import random
from pathlib import Path

from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng, Operation
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.store import StoreConfig

ROWS = 200
BATCH = 64

GOLDEN = {
    "P0": "bfe00be4e7c9ec3124bd4f33c84e5c15b5db4349fd28f1eddf33a0a0040ae495",
    "P1": "a6c69f2042bf209c2014dd4b17efc76b5cf05448b453bd86ae11ea3b65d416cd",
    "P2": "87d6c0957e4270b476c8985bdb4a96cf3fa462029256c728597ad720e37e2848",
    "P3": "970a940bf9d03f3e15b96d8f9cba9147423bfcd3385a91f35df66426ee8c1718",
}


CHECKPOINT_GOLDEN = "7466fce4d0952c884c9c2ef361b69d989a13e1d720e1a811ebf2921e32cdf11d"
MIXED_CHECKPOINT_GOLDEN = "c5454ef56fa742be8cb657c2238bb75bfb9c6ca2e001e4220372767fb2c1436b"


def seeded_rows(count: int) -> list[dict]:
    rng = random.Random(7)
    return [
        {
            "Time": f"2004-03-{1 + i % 28:02d} 10:{i % 60:02d}",
            "id": f"U{rng.randrange(8)}",
            "protocl": rng.choice(["UDP", "TCP", "HTTP"]),
            "Tid": f"T{1 + i // 3}",
            "C1": rng.randrange(1000),
            "C2": f"{rng.randrange(10_000) / 100:.2f}",
            "C3": rng.choice(["place", "confirm", "ship", None]),
            "ip": f"10.0.{rng.randrange(4)}.{rng.randrange(256)}",
        }
        for i in range(count)
    ]


def node_wal_digests(directory: Path) -> dict[str, str]:
    digests = {}
    for node_dir in sorted(p for p in directory.iterdir() if p.is_dir()):
        segments = sorted(node_dir.glob("wal-*.seg"), key=lambda p: int(p.stem[4:]))
        digests[node_dir.name] = hashlib.sha256(
            b"".join(p.read_bytes() for p in segments)
        ).hexdigest()
    return digests


def golden_service(directory: Path) -> ConfidentialAuditingService:
    schema = paper_table1_schema()
    return ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"wal-golden"),
        store_dir=str(directory),
        store_config=StoreConfig(fsync="off", compact=False, segment_bytes=8192),
    )


def checkpoint_digest(service: ConfidentialAuditingService, directory: Path) -> str:
    service.store.checkpoint()
    return hashlib.sha256((directory / "checkpoint.seg").read_bytes()).hexdigest()


def stream_into(directory: Path) -> dict[str, str]:
    service = golden_service(directory)
    try:
        ticket = service.register_user("U1")
        receipts = service.append_stream(seeded_rows(ROWS), ticket, batch_size=BATCH)
        assert len(receipts) == ROWS
    finally:
        service.close()
    return node_wal_digests(directory)


def test_streamed_wal_bytes_match_the_per_fragment_write_path(tmp_path):
    assert stream_into(tmp_path) == GOLDEN


def test_checkpoint_bytes_match_the_generic_codec(tmp_path):
    service = golden_service(tmp_path)
    try:
        ticket = service.register_user("U1")
        service.append_stream(seeded_rows(ROWS), ticket, batch_size=BATCH)
        assert checkpoint_digest(service, tmp_path) == CHECKPOINT_GOLDEN
    finally:
        service.close()


def test_a_mixed_checkpoint_matches_the_generic_codec(tmp_path):
    service = golden_service(tmp_path)
    try:
        ticket = service.register_user(
            "U1", {Operation.READ, Operation.WRITE, Operation.DELETE}
        )
        receipts = service.append_stream(seeded_rows(ROWS), ticket, batch_size=BATCH)
        other = service.register_user("U2")
        service.append_stream(seeded_rows(1), other, batch_size=BATCH)
        service.store.delete_record(receipts[3].glsn, ticket)
        service.store.node_store("P3").tamper(receipts[5].glsn, "ip", b"\x00raw")
        service.store.node_store("P1").evict(receipts[7].glsn)
        assert checkpoint_digest(service, tmp_path) == MIXED_CHECKPOINT_GOLDEN
    finally:
        service.close()

"""The WAL's bytes are pinned: batching the write path changed how often
the WAL is written, never what is written.

Two hundred seeded rows are streamed into a fresh durable store; the
sha256 of each node's concatenated segments must equal the digest the
per-fragment write path produced for the same rows (the values below).
Segments are kept small so the WAL rotates several times; segment
boundaries may move — rotation falls between ``append`` calls — so the
digest is taken over the concatenation, in segment order.
"""

import hashlib
import random
from pathlib import Path

from repro.core import ConfidentialAuditingService
from repro.crypto import DeterministicRng
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


def stream_into(directory: Path) -> dict[str, str]:
    schema = paper_table1_schema()
    service = ConfidentialAuditingService(
        schema, paper_fragment_plan(schema), prime_bits=64,
        rng=DeterministicRng(b"wal-golden"),
        store_dir=str(directory),
        store_config=StoreConfig(fsync="off", compact=False, segment_bytes=8192),
    )
    try:
        ticket = service.register_user("U1")
        receipts = service.append_stream(seeded_rows(ROWS), ticket, batch_size=BATCH)
        assert len(receipts) == ROWS
    finally:
        service.close()
    return node_wal_digests(directory)


def test_streamed_wal_bytes_match_the_per_fragment_write_path(tmp_path):
    assert stream_into(tmp_path) == GOLDEN

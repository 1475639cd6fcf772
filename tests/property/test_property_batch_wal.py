"""Property: a torn batched WAL recovers to an exact, verified glsn prefix.

Rows are appended in batches of random sizes — each node writes its share
of a batch with one WAL append, one frame per fragment — then one node's
last segment is cut at a random byte.  Recovery must keep exactly the
glsns whose frames survive whole on the cut node (a prefix of the log,
whatever batch the cut fell in), pass the integrity audit, and read every
surviving row back byte-identical.
"""

import functools
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.crypto import AccumulatorParams, DeterministicRng, Operation, TicketAuthority
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.schema import Attribute, AttributeKind, GlobalSchema
from repro.store import StoreConfig, open_durable_store
from repro.store.wal import RECORD_HEADER_BYTES

SCHEMA = GlobalSchema(
    [
        Attribute("a", AttributeKind.INTEGER),
        Attribute("s", AttributeKind.TEXT),
        Attribute("blob", AttributeKind.UNDEFINED),
    ]
)
PLAN = FragmentPlan(SCHEMA, {"P0": ["a"], "P1": ["s"], "P2": ["blob"]})
SECRET = b"prop-batch-wal-master-secret-32b"

row_strategy = st.fixed_dictionaries(
    {},
    optional={
        "a": st.integers(-(10**9), 10**9),
        "s": st.none() | st.text(max_size=20),
        "blob": st.binary(max_size=20),
    },
).filter(bool)


@functools.cache
def acc_params() -> AccumulatorParams:
    return AccumulatorParams.generate(128, DeterministicRng(b"batch-wal"))


def whole_frames(data: bytes) -> int:
    """How many frames of ``data`` are complete (CRCs not checked: a cut
    only shortens a segment)."""
    count = offset = 0
    while offset + RECORD_HEADER_BYTES <= len(data):
        offset += RECORD_HEADER_BYTES + int.from_bytes(data[offset : offset + 4], "big")
        if offset > len(data):
            break
        count += 1
    return count


@settings(deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=24),
    batch_sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    segment_bytes=st.sampled_from([256, 1024, 1 << 20]),
    data=st.data(),
)
def test_a_cut_in_any_nodes_last_segment_recovers_an_exact_prefix(
    rows, batch_sizes, segment_bytes, data
):
    authority = TicketAuthority(SECRET)
    ticket = authority.issue("U", {Operation.READ, Operation.WRITE})
    config = StoreConfig(fsync="off", compact=False, segment_bytes=segment_bytes)
    with tempfile.TemporaryDirectory() as directory:
        store, _ = open_durable_store(PLAN, authority, acc_params(), directory, config=config)
        receipts, at, turn = [], 0, 0
        while at < len(rows):
            size = batch_sizes[turn % len(batch_sizes)]
            receipts += store.append_batch(rows[at : at + size], ticket)
            at, turn = at + size, turn + 1
        glsns = [r.glsn for r in receipts]
        store.close()

        node = data.draw(st.sampled_from(sorted(PLAN.node_ids)), label="node")
        segments = sorted(
            (Path(directory) / node).glob("wal-*.seg"), key=lambda p: int(p.stem[4:])
        )
        last = segments[-1].read_bytes()
        cut = data.draw(st.integers(0, len(last)), label="cut")
        segments[-1].write_bytes(last[:cut])
        kept = sum(whole_frames(p.read_bytes()) for p in segments)

        recovered, report = open_durable_store(
            PLAN, authority, acc_params(), directory, config=config
        )
        try:
            assert recovered.glsns == glsns[:kept]
            assert report.audit_ok, report.audit_failures
            for receipt, row in zip(receipts[:kept], rows):
                assert recovered.read_record(receipt.glsn, ticket).values == row
        finally:
            recovered.close()

"""Property-based tests for the checkpoint: round trip, truncation, bit flips.

A checkpointed durable store recovers to the same state; a damaged
``checkpoint.seg`` — cut anywhere, or any one bit flipped — is refused
with a :class:`LogStoreError` naming the file and the byte offset.
"""

import functools
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import AccumulatorParams, DeterministicRng, Operation, TicketAuthority
from repro.errors import LogStoreError
from repro.logstore.fragmentation import FragmentPlan
from repro.logstore.integrity import IntegrityChecker
from repro.logstore.schema import Attribute, AttributeKind, GlobalSchema
from repro.store import CHECKPOINT_FILE, StoreConfig, open_durable_store, recover_store

from tests.store.conftest import store_state

SCHEMA = GlobalSchema(
    [
        Attribute("a", AttributeKind.INTEGER),
        Attribute("s", AttributeKind.TEXT),
        Attribute("C1", AttributeKind.UNDEFINED),
        Attribute("blob", AttributeKind.UNDEFINED),
    ]
)
PLAN = FragmentPlan(SCHEMA, {"P0": ["a", "s"], "P1": ["C1", "blob"]})
CONFIG = StoreConfig(fsync="off", compact=False)
SECRET = b"prop-persist-master-secret-32b!!"

row_strategy = st.fixed_dictionaries(
    {},
    optional={
        "a": st.integers(-(10**9), 10**9),
        "s": st.none() | st.text(max_size=25),
        "C1": st.integers(0, 10**6),
        "blob": st.binary(max_size=25),
    },
).filter(bool)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=8),
    batch=st.integers(1, 8),
    seed=st.integers(0, 999),
)
def test_roundtrip_preserves_everything(rows, batch, seed):
    authority = TicketAuthority(SECRET)
    ticket = authority.issue("U", {Operation.READ, Operation.WRITE})
    with tempfile.TemporaryDirectory() as directory:
        store, _ = open_durable_store(
            PLAN, authority, AccumulatorParams.generate(128, DeterministicRng(seed)),
            directory, config=CONFIG,
        )
        receipts = []
        for at in range(0, len(rows), batch):
            receipts += store.append_batch(rows[at : at + batch], ticket)
        expected = store_state(store)
        store.checkpoint()
        store.close()
        restored, report = recover_store(authority, directory, config=CONFIG)
        try:
            # Same state, records identical, anchors verify, allocator resumes.
            assert store_state(restored) == expected
            for receipt, row in zip(receipts, rows):
                assert restored.read_record(receipt.glsn, ticket).values == row
            assert report.audit_ok
            assert all(r.ok for r in IntegrityChecker(restored).check_all())
            fresh = restored.append({"a": 0}, ticket)
            assert fresh.glsn > max(r.glsn for r in receipts)
        finally:
            restored.close()


@functools.cache
def checkpoint_bytes() -> bytes:
    """A small store's ``checkpoint.seg``: a header and two node records."""
    authority = TicketAuthority(SECRET)
    ticket = authority.issue("U", {Operation.WRITE})
    with tempfile.TemporaryDirectory() as directory:
        store, _ = open_durable_store(
            PLAN, authority, AccumulatorParams.generate(128, DeterministicRng(7)),
            directory, config=CONFIG,
        )
        store.append_batch(
            [{"a": i, "s": "x", "C1": i * i, "blob": b"\x00\xff"} for i in range(3)], ticket
        )
        store.checkpoint()
        store.close()
        return (Path(directory) / CHECKPOINT_FILE).read_bytes()


def assert_refused(damaged: bytes) -> None:
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / CHECKPOINT_FILE).write_bytes(damaged)
        with pytest.raises(LogStoreError, match=rf"{re.escape(CHECKPOINT_FILE)}: .*offset \d+"):
            recover_store(TicketAuthority(SECRET), directory, config=CONFIG)


@settings(deadline=None)
@given(data=st.data())
def test_a_cut_checkpoint_is_refused(data):
    blob = checkpoint_bytes()
    assert_refused(blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")])


@settings(deadline=None)
@given(data=st.data())
def test_a_bit_flipped_checkpoint_is_refused(data):
    blob = bytearray(checkpoint_bytes())
    bit = data.draw(st.integers(0, len(blob) * 8 - 1), label="bit")
    blob[bit // 8] ^= 1 << (bit % 8)
    assert_refused(bytes(blob))

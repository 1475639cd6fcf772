"""Unit tests for the write-ahead log (framing, rotation, replay)."""

import zlib

import pytest

from repro.errors import LogStoreError
from repro.store import StoreConfig, WriteAheadLog
from repro.store.wal import RECORD_HEADER_BYTES


def make_wal(tmp_path, **overrides):
    defaults = dict(fsync="off")
    defaults.update(overrides)
    return WriteAheadLog(tmp_path, StoreConfig(**defaults))


class TestFraming:
    def test_record_roundtrip(self, tmp_path):
        wal = make_wal(tmp_path)
        records = [
            {"op": "put", "glsn": 7, "values": {"a": "x"}, "anchor": 2**200 + 1},
            {"op": "delete", "glsn": 7},
        ]
        wal.append(records)
        wal.close()
        replay = make_wal(tmp_path).replay()
        assert not replay.torn_tail
        assert replay.entries == records

    def test_bigints_survive(self, tmp_path):
        wal = make_wal(tmp_path)
        huge = 2**1024 + 12345
        wal.append([{"op": "put", "glsn": 1, "anchor": huge, "chain": None}])
        wal.close()
        entry = make_wal(tmp_path).replay().entries[0]
        assert entry["anchor"] == huge and entry["chain"] is None

    def test_header_is_wire_shaped(self):
        encoded = WriteAheadLog.encode_record({"op": "evict", "glsn": 3})
        body = encoded[RECORD_HEADER_BYTES:]
        assert int.from_bytes(encoded[:4], "big") == len(body)
        assert int.from_bytes(encoded[4:8], "big") == zlib.crc32(body) & 0xFFFFFFFF


class TestRotation:
    def test_segments_rotate_and_seal(self, tmp_path):
        wal = make_wal(tmp_path, segment_bytes=64)
        for i in range(20):
            wal.append([{"op": "put", "glsn": i, "values": {"k": "v" * 8}}])
        assert wal.sealed_segment_count >= 2
        replay = wal.replay()
        assert replay.records == 20
        assert [e["glsn"] for e in replay.entries] == list(range(20))
        wal.close()

    def test_reset_deletes_but_never_reuses_indices(self, tmp_path):
        wal = make_wal(tmp_path, segment_bytes=64)
        for i in range(10):
            wal.append([{"op": "put", "glsn": i}])
        before = sorted(p.name for p in tmp_path.glob("wal-*.seg"))
        wal.reset()
        assert not list(tmp_path.glob("wal-*.seg"))
        wal.append([{"op": "put", "glsn": 99}])
        after = sorted(p.name for p in tmp_path.glob("wal-*.seg"))
        assert after and after[0] > before[-1]
        assert wal.replay().entries == [{"op": "put", "glsn": 99}]
        wal.close()


    def test_sealed_count_equals_the_directory_listing(self, tmp_path):
        """The count is kept, not listed, across rotation, reset and reopen."""

        def listed(wal) -> int:
            active = wal._active_path()
            return sum(1 for path in wal._segment_paths() if path != active)

        wal = make_wal(tmp_path, segment_bytes=64)
        for i in range(12):
            wal.append([{"op": "put", "glsn": i, "values": {"k": "v" * 8}}])
            assert wal.sealed_segment_count == listed(wal)
        assert wal.sealed_segment_count >= 2
        wal.reset()
        assert wal.sealed_segment_count == listed(wal) == 0
        for i in range(5):
            wal.append([{"op": "put", "glsn": i, "values": {"k": "v" * 8}}])
        count = wal.sealed_segment_count
        assert count == listed(wal) >= 1
        wal.close()
        reopened = make_wal(tmp_path, segment_bytes=64)
        assert reopened.sealed_segment_count == listed(reopened) == count + 1
        reopened.append([{"op": "put", "glsn": 9}])
        assert reopened.sealed_segment_count == listed(reopened)
        reopened.close()


class TestBatching:
    def test_appended_records_are_on_disk_when_append_returns(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append([{"op": "put", "glsn": 1}])
        assert make_wal(tmp_path).replay().records == 1
        wal.close()

    def test_one_call_writes_exactly_one_frame_per_record(self, tmp_path):
        records = [
            {"op": "put", "glsn": i, "values": {"k": f"v{i}"}, "anchor": 2**130 + i}
            for i in range(7)
        ]
        wal = make_wal(tmp_path)
        wal.append(records)
        wal.close()
        (segment,) = tmp_path.glob("wal-*.seg")
        assert segment.read_bytes() == b"".join(map(WriteAheadLog.encode_record, records))
        assert wal.records_appended == 7
        assert wal.append_seconds.count == 1

    def test_rotation_falls_between_calls_and_never_splits_a_frame(self, tmp_path):
        # Each call overruns the 64-byte segment, so each lands whole in a
        # segment of its own, however many frames it carries.
        wal = make_wal(tmp_path, segment_bytes=64)
        calls = [
            [{"op": "put", "glsn": 10 * c + i, "values": {"k": "v" * 64}} for i in range(c + 1)]
            for c in range(4)
        ]
        for records in calls:
            wal.append(records)
        wal.close()
        segments = sorted(tmp_path.glob("wal-*.seg"))
        assert [s.read_bytes() for s in segments] == [
            b"".join(map(WriteAheadLog.encode_record, records)) for records in calls
        ]
        replay = make_wal(tmp_path).replay()
        assert not replay.torn_tail
        assert replay.entries == [record for records in calls for record in records]

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.close()
        with pytest.raises(LogStoreError):
            wal.append([{"op": "put", "glsn": 1}])


class TestTornTails:
    def fill(self, tmp_path, count=5):
        wal = make_wal(tmp_path)
        for i in range(count):
            wal.append([{"op": "put", "glsn": i, "values": {"k": f"v{i}"}}])
        wal.close()
        return sorted(tmp_path.glob("wal-*.seg"))[-1]

    def test_truncated_record_stops_replay_cleanly(self, tmp_path):
        seg = self.fill(tmp_path)
        data = seg.read_bytes()
        seg.write_bytes(data[:-3])
        replay = make_wal(tmp_path).replay()
        assert replay.torn_tail and replay.records == 4
        assert "truncated" in replay.detail

    def test_torn_header_detected(self, tmp_path):
        seg = self.fill(tmp_path)
        seg.write_bytes(seg.read_bytes() + b"\x00\x01\x02")
        replay = make_wal(tmp_path).replay()
        assert replay.torn_tail and replay.records == 5
        assert "torn header" in replay.detail

    def test_crc_corruption_detected(self, tmp_path):
        seg = self.fill(tmp_path)
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF  # flip a bit in the final record's body
        seg.write_bytes(bytes(data))
        replay = make_wal(tmp_path).replay()
        assert replay.torn_tail and replay.records == 4
        assert "CRC" in replay.detail

    def test_damage_in_a_sealed_segment_is_an_error_not_a_torn_tail(self, tmp_path):
        wal = make_wal(tmp_path, segment_bytes=200)
        for i in range(12):
            wal.append([{"op": "put", "glsn": i, "values": {"k": f"v{i}"}}])
        wal.close()
        segments = sorted(tmp_path.glob("wal-*.seg"))
        assert len(segments) == 3
        data = bytearray(segments[0].read_bytes())
        data[RECORD_HEADER_BYTES + 5] ^= 0xFF  # the first record's body
        segments[0].write_bytes(bytes(data))
        with pytest.raises(LogStoreError, match=r"wal-\d+\.seg: CRC mismatch at offset 0"):
            make_wal(tmp_path).replay()

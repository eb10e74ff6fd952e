"""Unit tests for the write-ahead log and the durable directory layout.

The WAL's contract: every record that ``append`` acknowledged is
readable back (CRC-verified) in order; a torn tail — the half-record a
crash leaves — is detected and truncated on open, never replayed, and
never blocks subsequent appends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import WALError
from tests.conftest import assert_synced_replace
from repro.wal import (
    DurableLayout,
    WriteAheadLog,
    _parse_fsync,
    scan_segment,
    verify_segment,
)


def sample_records(wal: WriteAheadLog, rng) -> list[tuple]:
    plan = []
    for oid in range(5):
        arr = rng.normal(size=(2, 3))
        wal.append("add", oid=oid, array=arr)
        plan.append(("add", oid, arr))
    wal.append("remove", oid=2)
    plan.append(("remove", 2, None))
    arr = rng.normal(size=(3, 3))
    wal.append("update", oid=4, array=arr)
    plan.append(("update", 4, arr))
    wal.append("compact")
    plan.append(("compact", None, None))
    return plan


class TestRoundtrip:
    def test_append_then_replay(self, tmp_path, rng):
        path = tmp_path / "wal-00000000.log"
        with WriteAheadLog(path, fsync="always", fresh=True) as wal:
            plan = sample_records(wal, rng)
        records = list(scan_segment(path).records)
        assert [r["op"] for r in records] == [op for op, _, _ in plan]
        for record, (_, oid, arr) in zip(records, plan):
            if oid is not None:
                assert record["oid"] == oid
            if arr is not None:
                np.testing.assert_array_equal(record["array"], arr)
            else:
                assert "array" not in record

    def test_checkpoint_record(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fresh=True) as wal:
            wal.append("checkpoint", next_generation=3)
        (record,) = scan_segment(path).records
        assert record["op"] == "checkpoint"
        assert record["next_generation"] == 3

    @pytest.mark.parametrize("fsync", ["always", "none", "every-3", 5])
    def test_fsync_policies_roundtrip(self, tmp_path, rng, fsync):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=fsync, fresh=True) as wal:
            for oid in range(7):
                wal.append("add", oid=oid, array=rng.normal(size=(1, 2)))
        assert len(list(scan_segment(path).records)) == 7

    def test_unknown_op_rejected(self, tmp_path):
        with WriteAheadLog(tmp_path / "w.log", fresh=True) as wal:
            with pytest.raises(WALError, match="unknown record op"):
                wal.append("nonsense")


class TestFsyncPolicyParsing:
    def test_policies(self):
        assert _parse_fsync("always") == 1
        assert _parse_fsync(None) == 1
        assert _parse_fsync("none") == 0
        assert _parse_fsync(0) == 0
        assert _parse_fsync("every-8") == 8
        assert _parse_fsync(12) == 12
        assert _parse_fsync("3") == 3

    @pytest.mark.parametrize("bad", ["sometimes", "every-x", -2, 1.5])
    def test_bad_policy_raises(self, bad):
        with pytest.raises(WALError):
            _parse_fsync(bad)


class TestCorruptionDetection:
    def _write(self, path, rng, n=6):
        with WriteAheadLog(path, fresh=True) as wal:
            for oid in range(n):
                wal.append("add", oid=oid, array=rng.normal(size=(2, 2)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "not-a-wal.log"
        path.write_bytes(b"definitely not a wal segment")
        with pytest.raises(WALError, match="bad magic"):
            scan_segment(path)
        count, error = verify_segment(path)
        assert count == 0 and "bad magic" in error

    def test_torn_tail_detected_and_prefix_kept(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        self._write(path, rng)
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # kill the last record mid-payload
        scan = scan_segment(path)
        assert scan.torn
        assert len(scan.records) == 5
        count, error = verify_segment(path)
        assert count == 5 and error is not None

    def test_flipped_crc_stops_scan(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        self._write(path, rng, n=3)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # corrupt the last record's payload
        path.write_bytes(bytes(data))
        scan = scan_segment(path)
        assert scan.torn and "CRC" in scan.error
        assert len(scan.records) == 2

    def test_open_truncates_torn_tail_and_appends_continue(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        self._write(path, rng)
        whole = path.read_bytes()
        path.write_bytes(whole[:-3])
        reg = obs.registry()
        reg.reset()
        obs.enable()
        try:
            wal = WriteAheadLog(path)  # open-for-append truncates
            assert reg.counter("wal.torn_tail_truncations").value == 1
        finally:
            reg.reset()
            obs.disable()
        wal.append("add", oid=99, array=rng.normal(size=(1, 2)))
        wal.close()
        records = list(scan_segment(path).records)
        assert [r.get("oid") for r in records] == [0, 1, 2, 3, 4, 99]

    def test_empty_file_is_not_a_segment(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_bytes(b"")
        with pytest.raises(WALError):
            scan_segment(path)


class TestDurableLayout:
    def test_publish_roundtrip(self, tmp_path):
        layout = DurableLayout(tmp_path / "db")
        layout.write_config({"capacity": 4})
        assert layout.read_config()["capacity"] == 4
        layout.publish(7)
        assert layout.current_generation() == 7
        layout.publish(8)
        assert layout.current_generation() == 8

    def test_write_config_syncs_the_file_before_the_rename(
        self, tmp_path, sync_events
    ):
        """``durable.json`` is written to a temp file, fsynced, renamed
        into place and its directory fsynced: a crash never publishes a
        config whose bytes were not on disk."""
        layout = DurableLayout(tmp_path / "db")
        layout.write_config({"capacity": 4})
        assert_synced_replace(sync_events, layout.config_path)
        layout.publish(1)
        assert_synced_replace(sync_events, layout.current_path)

    def test_missing_markers_raise(self, tmp_path):
        layout = DurableLayout(tmp_path / "nope")
        with pytest.raises(WALError, match="not a durable database"):
            layout.read_config()
        with pytest.raises(WALError, match="no CURRENT"):
            layout.current_generation()

    def test_corrupt_current_raises(self, tmp_path):
        layout = DurableLayout(tmp_path)
        layout.current_path.write_text("banana\n")
        with pytest.raises(WALError, match="corrupt generation marker"):
            layout.current_generation()

    def test_retire_keeps_window(self, tmp_path, rng):
        layout = DurableLayout(tmp_path)
        for generation in range(1, 6):
            layout.snapshot_path(generation).write_bytes(b"x")
            WriteAheadLog(
                layout.wal_path(generation), generation=generation, fresh=True
            ).close()
        layout.retire(published=5, keep_generations=2)
        assert layout.generations_on_disk() == [4, 5]
        assert layout.wal_generations_on_disk() == [4, 5]
        # keep_generations below 1 is clamped: the published generation
        # itself always survives.
        layout.retire(published=5, keep_generations=0)
        assert layout.generations_on_disk() == [5]

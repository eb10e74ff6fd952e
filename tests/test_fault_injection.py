"""Fault-injection tests: every degradation path of ingest & persistence.

Uses the deterministic harness in :mod:`repro.testing.faults` to make
voxelization, file reads and ``np.savez`` fail on schedule, and asserts
that error isolation, the retry ladder, atomic saves and the tolerant
load of a durable directory all behave exactly as documented.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.parts import make_part
from repro.db import SimilarityDatabase, open_database
from repro.db.archive import read_archive, write_archive
from repro.exceptions import (
    IngestError,
    SnapshotIntegrityError,
    StorageError,
    VoxelizationError,
)
from repro.geometry.mesh import box_mesh
from repro.io.stl import write_stl_binary
from repro.pipeline import Pipeline
from repro.testing import (
    corrupt_bytes,
    fail_always,
    fail_every,
    fail_first,
    fail_once,
    never_fail,
    read_faults,
    savez_faults,
    tamper_npz_array,
    voxelization_faults,
)


@pytest.fixture
def parts(rng):
    families = ["tire", "bracket", "door", "wing"]
    return [
        make_part(family, rng, name=f"{family}-{index}", class_id=index)
        for index, family in enumerate(families)
    ]


@pytest.fixture
def pipeline():
    return Pipeline(resolution=8)


@pytest.fixture
def mesh_dir(tmp_path):
    """A mesh collection where 2 of 10 files (~20%) are corrupt."""
    directory = tmp_path / "meshes"
    directory.mkdir()
    for index in range(8):
        write_stl_binary(
            box_mesh(size=(1.0 + 0.1 * index, 1.0, 0.5)),
            directory / f"good{index}.stl",
        )
    (directory / "bad-short.stl").write_bytes(b"\x00" * 30)
    (directory / "bad-index.off").write_text(
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
    )
    return directory


def sample_database(n=3):
    db = SimilarityDatabase(2)
    for index in range(n):
        db.add(index, np.full((2, 6), float(index)), {"name": f"obj-{index}"})
    return db


class TestSchedules:
    def test_fail_once_fires_exactly_once(self):
        schedule = fail_once(at=2)
        assert [schedule.fire() for _ in range(4)] == [False, True, False, False]
        assert schedule.calls == 4 and schedule.fired == 1

    def test_fail_every_nth(self):
        schedule = fail_every(3)
        assert [schedule.fire() for _ in range(6)] == [
            False, False, True, False, False, True,
        ]

    def test_fail_first_and_always_and_never(self):
        assert [fail_first(2).fire() for _ in range(1)] == [True]
        assert fail_always().fire() is True
        assert never_fail().fire() is False


class TestErrorIsolation:
    def test_skip_isolates_the_failing_part(self, pipeline, parts):
        with voxelization_faults(fail_once(at=2)) as schedule:
            report = pipeline.process_parts(parts, on_error="skip")
        assert schedule.fired == 1
        assert len(report) == len(parts) - 1
        assert [rec.status for rec in report.records] == ["ok", "failed", "ok", "ok"]
        failure = report.failures[0]
        assert failure.name == parts[1].name
        assert failure.error_type == "VoxelizationError"
        assert not report.all_ok()

    def test_raise_propagates_the_original_exception(self, pipeline, parts):
        with voxelization_faults(fail_once(at=1)):
            with pytest.raises(VoxelizationError, match="injected"):
                pipeline.process_parts(parts, on_error="raise")

    def test_default_policy_is_raise(self, pipeline, parts):
        with voxelization_faults(fail_once(at=1)):
            with pytest.raises(VoxelizationError):
                pipeline.process_parts(parts)

    def test_unknown_policy_rejected(self, pipeline, parts):
        with pytest.raises(IngestError):
            pipeline.process_parts(parts, on_error="ignore")

    def test_report_is_sequence_compatible(self, pipeline, parts):
        report = pipeline.process_parts(parts)
        assert report.all_ok()
        assert len(report) == len(parts)
        assert report[0].name == parts[0].name
        assert [obj.class_id for obj in report] == [0, 1, 2, 3]
        assert report[:2][1].name == parts[1].name


class TestRetryLadder:
    def test_transient_fault_recovers_on_second_attempt(self, pipeline, parts):
        with voxelization_faults(fail_once(at=1)) as schedule:
            report = pipeline.process_parts(parts, on_error="retry")
        assert report.all_ok()
        first = report.records[0]
        assert first.attempts == 2 and first.fallback == "supersample"
        # the remaining parts succeeded first try
        assert all(rec.attempts == 1 for rec in report.records[1:])
        assert schedule.fired == 1

    def test_persistent_fault_falls_back_to_reduced_resolution(self, pipeline, parts):
        with voxelization_faults(fail_first(2)):
            report = pipeline.process_parts(parts[:1], on_error="retry")
        assert report.all_ok()
        record = report.records[0]
        assert record.attempts == 3 and record.fallback == "reduced-resolution"
        assert report[0].grid.resolution == pipeline._reduced_resolution()

    def test_ladder_exhaustion_records_failure(self, pipeline, parts):
        with voxelization_faults(fail_always()):
            report = pipeline.process_parts(parts[:2], on_error="retry")
        assert len(report) == 0
        assert all(rec.status == "failed" for rec in report.records)
        assert all(rec.attempts == 3 for rec in report.records)

    def test_records_carry_wall_time(self, pipeline, parts):
        report = pipeline.process_parts(parts[:2])
        assert all(rec.seconds >= 0.0 for rec in report.records)
        assert report.total_seconds >= 0.0


class TestMeshDirectoryIngest:
    def test_skip_ingests_all_healthy_files(self, pipeline, mesh_dir):
        report = pipeline.process_mesh_directory(mesh_dir, on_error="skip")
        assert len(report) == 8
        assert {rec.name for rec in report.failures} == {"bad-short", "bad-index"}
        for failure in report.failures:
            assert failure.error_type == "StorageError"
            assert failure.source is not None
        # class ids follow the sorted file list, stable across failures
        assert [obj.name for obj in report] == [f"good{i}" for i in range(8)]

    def test_raise_propagates_first_parser_error(self, pipeline, mesh_dir):
        with pytest.raises(StorageError):
            pipeline.process_mesh_directory(mesh_dir, on_error="raise")

    def test_transient_read_fault_cleared_by_retry(self, pipeline, tmp_path):
        directory = tmp_path / "clean"
        directory.mkdir()
        for index in range(3):
            write_stl_binary(box_mesh(), directory / f"p{index}.stl")
        with read_faults(fail_once(at=1)) as schedule:
            report = pipeline.process_mesh_directory(directory, on_error="retry")
        assert report.all_ok()
        assert report.records[0].attempts == 2
        assert schedule.fired == 1

    def test_read_fault_skipped_without_retry(self, pipeline, tmp_path):
        directory = tmp_path / "clean"
        directory.mkdir()
        for index in range(3):
            write_stl_binary(box_mesh(), directory / f"p{index}.stl")
        with read_faults(fail_once(at=1)):
            report = pipeline.process_mesh_directory(directory, on_error="skip")
        assert len(report) == 2
        assert report.failures[0].error_type == "StorageError"

    def test_missing_directory_raises_storage_error(self, pipeline, tmp_path):
        with pytest.raises(StorageError):
            pipeline.process_mesh_directory(tmp_path / "nope")


class TestAtomicSave:
    def test_interrupted_save_preserves_existing_database(self, tmp_path):
        db = sample_database()
        path = tmp_path / "db.npz"
        db.save(path)
        before = path.read_bytes()
        db.add(3, np.ones((1, 6)))
        with savez_faults(fail_once()):
            with pytest.raises(StorageError, match="injected"):
                db.save(path)
        assert path.read_bytes() == before  # byte-for-byte untouched
        assert SimilarityDatabase.load(path).object_ids() == [0, 1, 2]
        # no temp-file litter either
        assert [p.name for p in tmp_path.iterdir()] == ["db.npz"]

    def test_interrupted_first_save_leaves_no_file(self, tmp_path):
        db = sample_database()
        path = tmp_path / "fresh.npz"
        with savez_faults(fail_once()):
            with pytest.raises(StorageError, match="injected"):
                db.save(path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_grid_is_atomic_too(self, tmp_path, tire_grid):
        from repro.io.vox import load_grid, save_grid

        path = tmp_path / "grid.npz"
        save_grid(tire_grid, path)
        before = path.read_bytes()
        with savez_faults(fail_once()):
            with pytest.raises(StorageError):
                save_grid(tire_grid, path)
        assert path.read_bytes() == before
        assert load_grid(path) == tire_grid


class TestTolerantLoad:
    """A damaged snapshot: one file is refused, naming the damage; a
    durable directory tolerates it, its recovery ladder opening the
    generation before and replaying the log from there."""

    @staticmethod
    def durable(path):
        """A durable database with two generations, one object logged
        after the newest."""
        db = SimilarityDatabase(2, durable=True, path=path)
        for index in range(3):
            db.add(index, np.full((2, 6), float(index)))
            db.checkpoint()
        db.add(3, np.ones((1, 6)))
        db.close()
        return sorted(path.glob("snapshot-*.npz"))[-1]

    def test_strict_load_rejects_corrupted_record(self, tmp_path):
        path = tmp_path / "db.npz"
        sample_database().save(path)
        tamper_npz_array(path, "set_data")
        with pytest.raises(SnapshotIntegrityError, match="checksum") as caught:
            SimilarityDatabase.load(path)
        assert caught.value.member == "set_data"

    def test_tolerant_load_skips_exactly_the_corrupted_record(self, tmp_path):
        newest = self.durable(tmp_path / "db")
        tamper_npz_array(newest, "set_data")
        recovered = SimilarityDatabase.load(tmp_path / "db")
        report = recovered.last_recovery
        assert report.fallbacks == 1
        assert report.used_generation == report.requested_generation - 1
        assert len(report.failures) == 1 and "set_data" in report.failures[0]
        assert recovered.object_ids() == [0, 1, 2, 3]
        recovered.close()

    def test_tampered_features_detected(self, tmp_path):
        path = tmp_path / "db.npz"
        sample_database().save(path)
        tamper_npz_array(path, "centroids")
        with pytest.raises(SnapshotIntegrityError, match="object-store column"):
            SimilarityDatabase.load(path)

    def test_container_level_corruption_still_raises(self, tmp_path):
        path = tmp_path / "db.npz"
        sample_database().save(path)
        corrupt_bytes(path, offset=-40, count=24)  # hits the central directory
        with pytest.raises(StorageError):
            SimilarityDatabase.load(path)

    def test_future_format_version_rejected(self, tmp_path):
        for dense in (False, True):
            path = tmp_path / ("db.dense" if dense else "db.npz")
            sample_database(n=1).save(path, dense=dense)
            meta, arrays, _ = read_archive(path, "repro-similarity-db")
            meta["version"] = 2
            write_archive(path, meta, arrays, dense=dense)
            with pytest.raises(StorageError, match="unsupported database version"):
                SimilarityDatabase.load(path)


class TestCliSurfacing:
    def test_partial_success_exits_3_and_prints_report(
        self, mesh_dir, tmp_path, capsys
    ):
        out = tmp_path / "db.npz"
        code = main(
            ["ingest", "--meshes", str(mesh_dir), "--out", str(out),
             "--resolution", "8"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "8/10 objects ingested" in captured.err
        assert "bad-short" in captured.err and "bad-index" in captured.err
        assert "ingested 8 objects" in captured.out
        db = open_database(out)
        assert len(db) == 8
        assert "bad-short" not in {db.payload(oid)["name"] for oid in db.object_ids()}

    def test_strict_flag_exits_1_on_first_bad_file(self, mesh_dir, tmp_path):
        code = main(
            ["ingest", "--meshes", str(mesh_dir), "--strict",
             "--out", str(tmp_path / "db.npz"), "--resolution", "8"]
        )
        assert code == 1

    def test_on_error_retry_accepted(self, tmp_path, capsys):
        directory = tmp_path / "clean"
        directory.mkdir()
        for index in range(2):
            write_stl_binary(box_mesh(), directory / f"p{index}.stl")
        code = main(
            ["ingest", "--meshes", str(directory), "--on-error", "retry",
             "--out", str(tmp_path / "db.npz"), "--resolution", "8"]
        )
        assert code == 0
        assert "ingested 2 objects" in capsys.readouterr().out

    def test_all_bad_exits_2_without_writing(self, tmp_path, capsys):
        directory = tmp_path / "allbad"
        directory.mkdir()
        (directory / "a.stl").write_bytes(b"junk")
        (directory / "b.stl").write_bytes(b"\x00" * 10)
        out = tmp_path / "db.npz"
        code = main(
            ["ingest", "--meshes", str(directory), "--out", str(out),
             "--resolution", "8"]
        )
        assert code == 2
        assert not out.exists()
        assert "nothing ingested" in capsys.readouterr().err

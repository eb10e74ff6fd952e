"""Tests for the persistence layer (OFF, STL, voxel grids, database)."""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.geometry.mesh import box_mesh, uv_sphere_mesh
from repro.io.database import ObjectDatabase, StoredObject
from repro.io.off import read_off, write_off
from repro.io.stl import read_stl, write_stl_ascii, write_stl_binary
from repro.io.vox import load_grid, save_grid
from repro.normalize.pose import PoseInfo
from repro.voxel.grid import VoxelGrid


class TestOff:
    def test_roundtrip(self, tmp_path):
        mesh = uv_sphere_mesh(radius=1.0, rings=6, segments=8)
        path = tmp_path / "sphere.off"
        write_off(mesh, path)
        loaded = read_off(path)
        assert np.allclose(loaded.vertices, mesh.vertices)
        assert np.array_equal(loaded.faces, mesh.faces)

    def test_counts_on_magic_line(self, tmp_path):
        path = tmp_path / "inline.off"
        path.write_text("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = read_off(path)
        assert mesh.num_vertices == 3 and mesh.num_faces == 1

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "commented.off"
        path.write_text(
            "OFF\n# a comment\n3 1 0\n0 0 0 # inline\n1 0 0\n0 1 0\n3 0 1 2\n"
        )
        assert read_off(path).num_faces == 1

    def test_quads_fan_triangulated(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text(
            "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        )
        assert read_off(path).num_faces == 2

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\nnot numbers\n")
        with pytest.raises(StorageError):
            read_off(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n5 2 0\n0 0 0\n")
        with pytest.raises(StorageError):
            read_off(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            read_off(tmp_path / "nope.off")


class TestStl:
    def test_ascii_roundtrip(self, tmp_path):
        mesh = box_mesh()
        path = tmp_path / "box.stl"
        write_stl_ascii(mesh, path)
        loaded = read_stl(path)
        assert loaded.num_faces == mesh.num_faces
        assert loaded.triangle_areas().sum() == pytest.approx(mesh.triangle_areas().sum())

    def test_binary_roundtrip(self, tmp_path):
        mesh = uv_sphere_mesh(rings=5, segments=6)
        path = tmp_path / "sphere.stl"
        write_stl_binary(mesh, path)
        loaded = read_stl(path)
        assert loaded.num_faces == mesh.num_faces
        area = mesh.triangle_areas().sum()
        assert loaded.triangle_areas().sum() == pytest.approx(area, rel=1e-5)

    def test_binary_detected_despite_solid_prefix(self, tmp_path):
        mesh = box_mesh()
        path = tmp_path / "tricky.stl"
        write_stl_binary(mesh, path)
        blob = bytearray(path.read_bytes())
        blob[:5] = b"solid"
        path.write_bytes(bytes(blob))
        assert read_stl(path).num_faces == mesh.num_faces

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "trunc.stl"
        path.write_bytes(b"\0" * 50)
        with pytest.raises(StorageError):
            read_stl(path)


class TestVoxPersistence:
    def test_roundtrip(self, tmp_path, tire_grid):
        path = tmp_path / "tire.npz"
        save_grid(tire_grid, path)
        loaded = load_grid(path)
        assert loaded == tire_grid

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an npz")
        with pytest.raises(StorageError):
            load_grid(path)


class TestObjectDatabase:
    def _sample_db(self, tire_grid, lshape_grid):
        db = ObjectDatabase()
        db.add(
            StoredObject(
                name="tire-1",
                family="tire",
                class_id=0,
                grid=tire_grid,
                pose=PoseInfo((1.0, 1.0, 0.5), (0, 0, 0)),
            )
        )
        db.add(
            StoredObject(
                name="bracket-1",
                family="bracket",
                class_id=1,
                grid=lshape_grid,
                pose=PoseInfo((2.0, 1.0, 1.0), (1, 0, 0)),
            )
        )
        return db

    def test_collection_interface(self, tire_grid, lshape_grid):
        db = self._sample_db(tire_grid, lshape_grid)
        assert len(db) == 2
        assert db[0].name == "tire-1"
        assert [obj.name for obj in db] == ["tire-1", "bracket-1"]
        assert [obj.class_id for obj in db] == [0, 1]

    def test_features_roundtrip(self, tire_grid, lshape_grid, rng):
        db = self._sample_db(tire_grid, lshape_grid)
        features = [rng.normal(size=(3, 6)), rng.normal(size=(2, 6))]
        db.set_features("vector-set(k=7)", features)
        assert db.has_features("vector-set(k=7)")
        loaded = db.get_features("vector-set(k=7)")
        assert np.allclose(loaded[1], features[1])

    def test_feature_count_mismatch_rejected(self, tire_grid, lshape_grid):
        db = self._sample_db(tire_grid, lshape_grid)
        with pytest.raises(StorageError):
            db.set_features("x", [np.zeros(3)])

    def test_missing_features_rejected(self, tire_grid, lshape_grid):
        db = self._sample_db(tire_grid, lshape_grid)
        with pytest.raises(StorageError):
            db.get_features("nope")

    def test_save_load_roundtrip(self, tmp_path, tire_grid, lshape_grid, rng):
        db = self._sample_db(tire_grid, lshape_grid)
        db.set_features("m", [rng.normal(size=(2, 6)), rng.normal(size=(1, 6))])
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = ObjectDatabase.load(path)
        assert len(loaded) == 2
        assert loaded[0].name == "tire-1"
        assert loaded[1].pose.scale_factors == (2.0, 1.0, 1.0)
        assert loaded[0].grid == tire_grid
        assert np.allclose(loaded[0].features["m"], db[0].features["m"])

    def test_load_corrupt_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(StorageError):
            ObjectDatabase.load(path)

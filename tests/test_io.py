"""Tests for the persistence layer (OFF, STL, voxel grids)."""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.geometry.mesh import box_mesh, uv_sphere_mesh
from repro.io.off import read_off, write_off
from repro.io.stl import read_stl, write_stl_ascii, write_stl_binary
from repro.io.vox import load_grid, save_grid
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

"""Tests for the VoxelGrid data type."""

import numpy as np
import pytest

from repro.exceptions import VoxelizationError
from repro.geometry.transform import reflection_matrix, rotation_matrix, symmetry_matrices
from repro.voxel.grid import VoxelGrid


class TestBasics:
    def test_empty_and_full(self):
        assert VoxelGrid.empty(5).count == 0
        assert VoxelGrid.full(5).count == 125

    def test_non_cubic_rejected(self):
        with pytest.raises(VoxelizationError):
            VoxelGrid(np.zeros((3, 4, 3), dtype=bool))

    def test_bad_voxel_size_rejected(self):
        with pytest.raises(VoxelizationError):
            VoxelGrid(np.zeros((3, 3, 3), dtype=bool), voxel_size=0.0)

    def test_indices_roundtrip(self):
        grid = VoxelGrid.empty(6)
        grid.occupancy[1, 2, 3] = True
        grid.occupancy[4, 4, 4] = True
        assert sorted(map(tuple, grid.indices())) == [(1, 2, 3), (4, 4, 4)]

    def test_centers_in_world_units(self):
        grid = VoxelGrid.empty(4)
        grid.occupancy[0, 0, 0] = True
        grid = VoxelGrid(grid.occupancy, origin=np.array([10.0, 0.0, 0.0]), voxel_size=2.0)
        assert np.allclose(grid.centers()[0], [11.0, 1.0, 1.0])

    def test_volume(self):
        grid = VoxelGrid.full(3)
        grid = VoxelGrid(grid.occupancy, voxel_size=0.5)
        assert grid.volume() == pytest.approx(27 * 0.125)

    def test_bounding_box(self, lshape_grid):
        lower, upper = lshape_grid.bounding_box()
        assert np.all(lower >= 0) and np.all(upper < lshape_grid.resolution)
        assert np.all(lower <= upper)

    def test_empty_grid_has_no_bbox(self):
        with pytest.raises(VoxelizationError):
            VoxelGrid.empty(4).bounding_box()

    def test_equality(self, lshape_grid):
        assert lshape_grid == lshape_grid.copy()
        other = lshape_grid.copy()
        other.occupancy[0, 0, 0] = ~other.occupancy[0, 0, 0]
        assert lshape_grid != other


class TestSurfaceInterior:
    def test_partition_property(self, tire_grid):
        """Surface and interior partition the object voxels (Section 3.3)."""
        surface = tire_grid.surface()
        interior = tire_grid.interior()
        assert not (surface & interior).any()
        assert np.array_equal(surface | interior, tire_grid.occupancy)

    def test_sphere_has_interior(self, sphere_grid):
        assert sphere_grid.interior().sum() > 0
        assert sphere_grid.surface().sum() > 0

    def test_single_voxel_is_all_surface(self):
        grid = VoxelGrid.empty(5)
        grid.occupancy[2, 2, 2] = True
        assert grid.surface().sum() == 1
        assert grid.interior().sum() == 0


class TestTransform:
    def test_rotation_preserves_count(self, lshape_grid):
        for mat in symmetry_matrices(include_reflections=True):
            assert lshape_grid.transformed(mat).count == lshape_grid.count

    def test_identity_is_noop(self, lshape_grid):
        assert np.array_equal(
            lshape_grid.transformed(np.eye(3)).occupancy, lshape_grid.occupancy
        )

    def test_double_reflection_is_identity(self, lshape_grid):
        mirror = reflection_matrix("x")
        twice = lshape_grid.transformed(mirror).transformed(mirror)
        assert np.array_equal(twice.occupancy, lshape_grid.occupancy)

    def test_four_quarter_turns_are_identity(self, lshape_grid):
        quarter = np.rint(rotation_matrix("z", np.pi / 2))
        grid = lshape_grid
        for _ in range(4):
            grid = grid.transformed(quarter)
        assert np.array_equal(grid.occupancy, lshape_grid.occupancy)

    def test_rotation_maps_indices_through_matrix(self):
        """Voxel indices move exactly as the matrix maps their centered
        coordinates."""
        resolution = 6
        grid = VoxelGrid.empty(resolution)
        grid.occupancy[0, 1, 2] = True
        grid.occupancy[3, 0, 5] = True
        mat = np.rint(rotation_matrix("z", np.pi / 2)).astype(int)
        moved = grid.transformed(mat)
        expected = set()
        for idx in grid.indices():
            centered = 2 * idx - (resolution - 1)
            new_idx = (mat @ centered + (resolution - 1)) // 2
            expected.add(tuple(new_idx))
        assert {tuple(i) for i in moved.indices()} == expected

    def test_non_signed_permutation_rejected(self, lshape_grid):
        with pytest.raises(VoxelizationError):
            lshape_grid.transformed(np.full((3, 3), 0.5))

    def test_chiral_object_has_48_distinct_variants(self):
        """A fully chiral object (no rotational or mirror symmetry)
        produces 48 distinct grids. The L-shape fixture is mirror-
        symmetric in y, so it only yields 24 — a chiral tri-axis blob is
        needed here."""
        from repro.geometry.sdf import Box
        from repro.voxel.voxelize import voxelize_solid

        chiral = (
            Box(size=(2.0, 0.6, 0.5))
            | Box(center=(0.7, 0.5, 0.0), size=(0.6, 0.8, 0.4))
            | Box(center=(-0.6, -0.1, 0.6), size=(0.5, 0.4, 0.9))
        )
        grid = voxelize_solid(chiral, resolution=12)
        variants = {
            variant.occupancy.tobytes()
            for variant in map(grid.transformed, symmetry_matrices(True))
        }
        assert len(variants) == 48

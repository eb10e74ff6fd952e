"""Tests for pose normalization, PCA and symmetry handling."""

import numpy as np
import pytest

from repro.exceptions import VoxelizationError
from repro.geometry.sdf import Box, Cylinder
from repro.geometry.transform import symmetry_matrices
from repro.normalize.pca import pca_align_grid, pca_align_points, principal_axes
from repro.normalize.pose import center_grid, normalize_grid
from repro.normalize.symmetry import (
    canonical_symmetry_matrix,
    canonicalize_grid,
)
from repro.voxel.grid import VoxelGrid
from repro.voxel.voxelize import voxelize_solid


class TestPose:
    def test_centering_is_idempotent(self, lshape_grid):
        once = center_grid(lshape_grid)
        twice = center_grid(once)
        assert np.array_equal(once.occupancy, twice.occupancy)

    def test_centering_preserves_count(self, lshape_grid):
        assert center_grid(lshape_grid).count == lshape_grid.count

    def test_centered_bbox_is_central(self):
        grid = VoxelGrid.empty(10)
        grid.occupancy[0:2, 0:2, 0:2] = True  # corner blob
        centered = center_grid(grid)
        lower, upper = centered.bounding_box()
        # Slack below and above differs by at most one voxel.
        slack_low = lower
        slack_high = 9 - upper
        assert np.all(np.abs(slack_low - slack_high) <= 1)

    def test_normalize_records_world_extents(self):
        grid = voxelize_solid(Box(size=(2.0, 1.0, 0.5)), resolution=16)
        _, pose = normalize_grid(grid)
        sx, sy, sz = pose.scale_factors
        assert sx == pytest.approx(2.0, rel=0.2)
        assert sy == pytest.approx(1.0, rel=0.25)
        assert sz == pytest.approx(0.5, rel=0.35)

    def test_empty_grid_rejected(self):
        with pytest.raises(VoxelizationError):
            normalize_grid(VoxelGrid.empty(5))


class TestPCA:
    def test_principal_axes_orthonormal(self, rng):
        pts = rng.normal(size=(200, 3)) * np.array([3.0, 1.0, 0.2])
        axes = principal_axes(pts)
        assert np.allclose(axes @ axes.T, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(axes), 1.0)

    def test_alignment_orders_variance(self, rng):
        pts = rng.normal(size=(500, 3)) * np.array([0.1, 5.0, 1.0])
        aligned = pca_align_points(pts)
        variances = aligned.var(axis=0)
        assert variances[0] >= variances[1] >= variances[2]

    def test_rotation_invariance_of_alignment(self, rng):
        from repro.geometry.transform import rotation_matrix

        pts = rng.normal(size=(400, 3)) * np.array([4.0, 1.5, 0.5])
        rotated = pts @ rotation_matrix(np.array([1.0, 2.0, 0.5]), 1.1).T
        a = pca_align_points(pts)
        b = pca_align_points(rotated)
        # Same point cloud up to sign conventions handled by skewness.
        assert np.allclose(np.sort(a.var(axis=0)), np.sort(b.var(axis=0)), rtol=1e-6)

    def test_align_grid_puts_long_axis_first(self):
        rod = voxelize_solid(Cylinder(radius=0.2, height=3.0, axis="y"), resolution=15)
        aligned = pca_align_grid(rod)
        lower, upper = aligned.bounding_box()
        extent = upper - lower + 1
        assert extent[0] == max(extent)

    def test_too_few_points_rejected(self):
        with pytest.raises(VoxelizationError):
            principal_axes(np.zeros((1, 3)))


class TestSymmetry:
    def test_canonicalization_collapses_all_48_variants(self):
        """For a moment-non-degenerate (chiral, skewed) object the
        canonical pose of every symmetric variant is identical — the
        exact quotient property the pipeline relies on."""
        from repro.geometry.sdf import Box

        chiral = (
            Box(size=(2.0, 0.6, 0.5))
            | Box(center=(0.7, 0.5, 0.0), size=(0.6, 0.8, 0.4))
            | Box(center=(-0.6, -0.1, 0.6), size=(0.5, 0.4, 0.9))
        )
        grid = voxelize_solid(chiral, resolution=12)
        canonical = {
            canonicalize_grid(variant).occupancy.tobytes()
            for variant in map(grid.transformed, symmetry_matrices(True))
        }
        assert len(canonical) == 1

    def test_canonicalization_near_symmetric_object(self, lshape_grid):
        """An object that is (near-)mirror-symmetric in one axis has a
        numerically ambiguous sign there; the canonical poses of its
        variants may split into at most the two mirror twins — which are
        themselves near-identical grids, so downstream distances stay
        small."""
        canonical = {
            canonicalize_grid(variant).occupancy.tobytes()
            for variant in map(lshape_grid.transformed, symmetry_matrices(True))
        }
        assert len(canonical) <= 2

    def test_canonical_matrix_is_cube_symmetry(self, lshape_grid):
        mat = canonical_symmetry_matrix(lshape_grid)
        assert np.allclose(np.abs(mat).sum(axis=0), 1)
        assert np.allclose(mat @ mat.T, np.eye(3))

    def test_rotation_only_canonicalization_has_det_one(self, lshape_grid):
        mat = canonical_symmetry_matrix(lshape_grid, include_reflections=False)
        assert np.isclose(np.linalg.det(mat), 1.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(VoxelizationError):
            canonicalize_grid(VoxelGrid.empty(4))

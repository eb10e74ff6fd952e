"""Tests for pose normalization, PCA and symmetry handling."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import VoxelizationError
from repro.geometry.sdf import Box, Cylinder
from repro.geometry.transform import symmetry_matrices
from repro.normalize.pca import pca_align_grid, pca_align_points, principal_axes
from repro.normalize.pose import PoseInfo, normalize_grid
from repro.normalize.symmetry import canonical_symmetry_matrix
from repro.pipeline import Pipeline
from repro.voxel.grid import VoxelGrid
from repro.voxel.voxelize import voxelize_solid


def center_grid(grid):
    return normalize_grid(grid)[0]


def canonicalize_grid(grid, include_reflections=True):
    """*grid* transformed into its canonical pose, uncentered."""
    return grid.transformed(canonical_symmetry_matrix(grid.indices(), include_reflections))


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
        mat = canonical_symmetry_matrix(lshape_grid.indices())
        assert np.allclose(np.abs(mat).sum(axis=0), 1)
        assert np.allclose(mat @ mat.T, np.eye(3))

    def test_rotation_only_canonicalization_has_det_one(self, lshape_grid):
        mat = canonical_symmetry_matrix(lshape_grid.indices(), include_reflections=False)
        assert np.isclose(np.linalg.det(mat), 1.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(VoxelizationError):
            canonicalize_grid(VoxelGrid.empty(4))


def _written_centering(grid):
    """Centering and pose as written out: every quantity from its own scan."""
    lower, upper = grid.bounding_box()
    target_lower = (grid.resolution - (upper - lower + 1)) // 2
    shift = target_lower - lower
    idx = grid.indices() + shift
    occupancy = np.zeros_like(grid.occupancy)
    occupancy[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    origin = grid.origin - shift * grid.voxel_size
    centered = VoxelGrid(occupancy, origin, grid.voxel_size)
    new_lower, _ = centered.bounding_box()
    extents = tuple(float(e) for e in (upper - lower + 1) * grid.voxel_size)
    return centered, extents, tuple(int(t) for t in new_lower - lower)


def _written_symmetry_matrix(grid, include_reflections):
    centered = grid.indices() - grid.center_of_mass()
    variance = centered.var(axis=0)
    skewness = (centered**3).mean(axis=0)
    order = np.lexsort((np.arange(3), -variance))
    signs = np.where(skewness[order] >= 0, 1.0, -1.0)
    matrix = np.zeros((3, 3))
    for new_axis in range(3):
        matrix[new_axis, order[new_axis]] = signs[new_axis]
    if not include_reflections and np.linalg.det(matrix) < 0:
        weakest = int(np.argmin(np.abs(skewness[order])))
        matrix[weakest] = -matrix[weakest]
    return matrix


class TestNormalizationMatchesTheWrittenFormulas:
    """Normalization derives the centered box from the shift and the mean
    from the indices it holds; on seeded parts every output must equal
    the formulas computed the long way, bit for bit."""

    @pytest.fixture(scope="class")
    def part_grids(self):
        from repro.datasets import make_aircraft_dataset

        parts, _ = make_aircraft_dataset(30, seed=20030609)
        grids = [voxelize_solid(part.solid, resolution=15) for part in parts]
        return [grid for grid in grids if not grid.is_empty()]

    def test_center_and_normalize(self, part_grids):
        for grid in part_grids:
            expected, extents, translation = _written_centering(grid)
            centered, pose = normalize_grid(grid)
            assert np.array_equal(centered.occupancy, expected.occupancy)
            assert np.array_equal(centered.origin, expected.origin)
            assert centered.voxel_size == expected.voxel_size
            assert pose.scale_factors == extents
            assert pose.translation == translation

    @pytest.mark.parametrize("include_reflections", [True, False])
    def test_canonical_pose(self, part_grids, include_reflections):
        for grid in part_grids:
            centered, _ = normalize_grid(grid)
            matrix = _written_symmetry_matrix(centered, include_reflections)
            assert np.array_equal(
                canonical_symmetry_matrix(centered.indices(), include_reflections), matrix
            )
            assert np.array_equal(
                normalize_grid(grid, True, include_reflections)[0].occupancy,
                centered.transformed(matrix).occupancy,
            )

    @pytest.mark.parametrize("include_reflections", [True, False])
    @pytest.mark.parametrize("canonical_pose", [True, False])
    def test_one_scan_equals_the_composition(
        self, part_grids, canonical_pose, include_reflections
    ):
        pipeline = Pipeline(
            canonical_pose=canonical_pose, include_reflections=include_reflections
        )
        for grid in part_grids:
            assert_normalized_as_written(
                grid, pipeline.process_grid(grid), canonical_pose, include_reflections
            )

    @given(
        occupancy=st.integers(2, 9).flatmap(lambda r: arrays(bool, (r, r, r))),
        origin=arrays(float, 3, elements=st.floats(-1e3, 1e3)),
        voxel_size=st.floats(1e-3, 1e3),
        canonical_pose=st.booleans(),
        include_reflections=st.booleans(),
    )
    def test_one_scan_equals_the_composition_on_any_grid(
        self, occupancy, origin, voxel_size, canonical_pose, include_reflections
    ):
        assume(occupancy.any())
        grid = VoxelGrid(occupancy, origin, voxel_size)
        got = normalize_grid(grid, canonical_pose, include_reflections)
        assert_normalized_as_written(grid, got, canonical_pose, include_reflections)


def assert_normalized_as_written(grid, got, canonical_pose, include_reflections):
    """*got*, a ``(grid, PoseInfo)`` pair, is byte for byte what centering
    and then, with *canonical_pose*, the canonical transform give when
    each step scans the grid it is handed."""
    expected, extents, translation = _written_centering(grid)
    if canonical_pose:
        matrix = _written_symmetry_matrix(expected, include_reflections)
        expected = expected.transformed(matrix)
    normalized, pose = got
    assert normalized.occupancy.dtype == expected.occupancy.dtype
    assert normalized.occupancy.tobytes() == expected.occupancy.tobytes()
    assert normalized.origin.tobytes() == expected.origin.tobytes()
    assert normalized.voxel_size == expected.voxel_size
    assert pose == PoseInfo(extents, translation)

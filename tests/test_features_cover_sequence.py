"""Tests for greedy cover-sequence extraction and the max-sum box oracle.

The oracle's ``max_sum_box`` (``tests/cover_oracle.py``) is held to a
brute force here; ``tests/test_extraction_engine.py`` holds the
production search to the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import FeatureError
from repro.features.cover_sequence import (
    Cover,
    CoverSequenceModel,
    extract_cover_sequence,
    transform_cover_vectors,
)
from repro.geometry.sdf import Box
from repro.geometry.transform import symmetry_matrices
from repro.voxel.grid import VoxelGrid
from repro.voxel.voxelize import voxelize_solid
from tests.cover_oracle import max_sum_box


def brute_force_max_box(weights: np.ndarray) -> float:
    best = -np.inf
    nx, ny, nz = weights.shape
    for x1 in range(nx):
        for x2 in range(x1, nx):
            for y1 in range(ny):
                for y2 in range(y1, ny):
                    for z1 in range(nz):
                        for z2 in range(z1, nz):
                            best = max(
                                best,
                                weights[x1 : x2 + 1, y1 : y2 + 1, z1 : z2 + 1].sum(),
                            )
    return best


class TestMaxSumBox:
    def test_single_positive_voxel(self):
        weights = np.full((5, 5, 5), -1.0)
        weights[2, 3, 1] = 10.0
        best, lower, upper = max_sum_box(weights)
        assert best == pytest.approx(10.0)
        assert np.array_equal(lower, [2, 3, 1])
        assert np.array_equal(upper, [2, 3, 1])

    def test_reports_box_that_realizes_sum(self, rng):
        weights = rng.normal(size=(6, 5, 4))
        best, lower, upper = max_sum_box(weights)
        realized = weights[
            lower[0] : upper[0] + 1, lower[1] : upper[1] + 1, lower[2] : upper[2] + 1
        ].sum()
        assert realized == pytest.approx(best)

    def test_matches_brute_force(self, rng):
        for _ in range(15):
            shape = rng.integers(2, 6, size=3)
            weights = rng.normal(size=tuple(shape))
            weights[rng.random(size=weights.shape) < 0.4] = 0.0
            assert max_sum_box(weights)[0] == pytest.approx(
                brute_force_max_box(weights)
            )

    def test_all_zero_grid(self):
        best, lower, upper = max_sum_box(np.zeros((4, 4, 4)))
        assert best == 0.0

    def test_all_negative_picks_least_bad_single_cell(self):
        weights = -np.arange(1, 9, dtype=float).reshape(2, 2, 2)
        best, lower, upper = max_sum_box(weights)
        assert best == pytest.approx(-1.0)
        assert np.array_equal(lower, upper)

    def test_non_3d_rejected(self):
        with pytest.raises(FeatureError):
            max_sum_box(np.zeros((3, 3)))

    @given(
        arrays(
            float,
            (4, 4, 4),
            elements=st.floats(-5, 5, allow_nan=False, width=16),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_optimality_property(self, weights):
        assert max_sum_box(weights)[0] == pytest.approx(
            brute_force_max_box(weights), abs=1e-6
        )


class TestCoverExtraction:
    def test_single_box_needs_one_cover(self):
        grid = voxelize_solid(Box(size=(1.5, 1.0, 0.7)), resolution=12, supersample=1)
        sequence = extract_cover_sequence(grid, k=5)
        assert len(sequence.covers) == 1
        assert sequence.errors[-1] == 0

    def test_lshape_needs_two_covers(self, lshape_grid):
        sequence = extract_cover_sequence(lshape_grid, k=7)
        assert sequence.errors[-1] == 0
        assert len(sequence.covers) == 2

    def test_errors_monotonically_decrease(self, tire_grid):
        sequence = extract_cover_sequence(tire_grid, k=7)
        errors = sequence.errors
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_approximation_matches_error(self, tire_grid):
        sequence = extract_cover_sequence(tire_grid, k=7)
        approx = sequence.approximation()
        assert int((approx ^ tire_grid.occupancy).sum()) == sequence.errors[-1]

    def test_subtraction_covers_used_for_hollow_shapes(self, tire_grid):
        sequence = extract_cover_sequence(tire_grid, k=7)
        signs = {cover.sign for cover in sequence.covers}
        assert -1 in signs  # the tire's hole is best carved out

    def test_subtraction_can_be_disabled(self, tire_grid):
        sequence = extract_cover_sequence(tire_grid, k=7, allow_subtraction=False)
        assert all(cover.sign > 0 for cover in sequence.covers)

    def test_first_cover_is_union(self, lshape_grid):
        assert extract_cover_sequence(lshape_grid, k=3).covers[0].sign == 1

    def test_greedy_gains_are_recorded(self, tire_grid):
        sequence = extract_cover_sequence(tire_grid, k=5)
        for cover, before, after in zip(
            sequence.covers, sequence.errors, sequence.errors[1:]
        ):
            assert cover.gain == before - after

    def test_empty_grid_rejected(self):
        with pytest.raises(FeatureError):
            extract_cover_sequence(VoxelGrid.empty(8), k=3)

    def test_invalid_k_rejected(self, lshape_grid):
        with pytest.raises(FeatureError):
            extract_cover_sequence(lshape_grid, k=0)


class TestCoverGeometry:
    def test_cover_mask_roundtrip(self):
        cover = Cover(sign=1, lower=(1, 2, 3), upper=(4, 5, 6), gain=0)
        mask = cover.mask(10)
        assert mask.sum() == cover.volume() == 4 * 4 * 4

    def test_center_and_extent(self):
        cover = Cover(sign=1, lower=(0, 0, 0), upper=(3, 1, 0), gain=0)
        assert np.allclose(cover.center(), [2.0, 1.0, 0.5])
        assert np.array_equal(cover.extent(), [4, 2, 1])


class TestFeatureEncoding:
    def test_feature_vector_shape_and_padding(self, lshape_grid):
        sequence = extract_cover_sequence(lshape_grid, k=7)
        flat = sequence.feature_vector(7)
        assert flat.shape == (42,)
        # Two real covers, five dummy (zero) rows.
        rows = flat.reshape(7, 6)
        assert np.allclose(rows[2:], 0.0)
        assert not np.allclose(rows[:2], 0.0)

    def test_feature_rows_have_positive_extents(self, tire_grid):
        rows = extract_cover_sequence(tire_grid, k=7).feature_vectors()
        assert np.all(rows[:, 3:] > 0)

    def test_normalization_scales_by_resolution(self, lshape_grid):
        sequence = extract_cover_sequence(lshape_grid, k=3)
        raw = sequence.feature_vectors(normalize=False)
        scaled = sequence.feature_vectors(normalize=True)
        assert np.allclose(raw / lshape_grid.resolution, scaled)

    def test_k_too_small_rejected(self, tire_grid):
        sequence = extract_cover_sequence(tire_grid, k=7)
        if len(sequence.covers) > 2:
            with pytest.raises(FeatureError):
                sequence.feature_vector(2)

    def test_model_interface(self, lshape_grid):
        model = CoverSequenceModel(k=5)
        features = model.extract(lshape_grid)
        assert features.shape == (30,)
        assert model.dimension(12) == 30


class TestCoverSymmetryTransform:
    @staticmethod
    def _rasterize(rows: np.ndarray, signs, resolution: int) -> np.ndarray:
        """Invert the feature encoding: rebuild the union/difference mask
        from (position, extent) rows."""
        state = np.zeros((resolution,) * 3, dtype=bool)
        center = resolution / 2.0
        for row, sign in zip(rows, signs):
            position = row[:3] * resolution + center
            extent = row[3:] * resolution
            lower = np.rint(position - extent / 2.0).astype(int)
            upper = np.rint(position + extent / 2.0).astype(int)
            mask = np.zeros_like(state)
            mask[lower[0] : upper[0], lower[1] : upper[1], lower[2] : upper[2]] = True
            state = (state | mask) if sign > 0 else (state & ~mask)
        return state

    def test_transform_reconstructs_rotated_object(self, lshape_grid):
        """Transforming extracted cover vectors describes exactly the
        rotated object.  (Row-by-row equality with a fresh greedy
        extraction does NOT hold in general: equal-gain ties may pick a
        different but equally good decomposition.)"""
        sequence = extract_cover_sequence(lshape_grid, k=7)
        assert sequence.errors[-1] == 0
        rows = sequence.feature_vectors()
        signs = [cover.sign for cover in sequence.covers]
        for matrix in symmetry_matrices(True)[:8]:
            transformed_rows = transform_cover_vectors(rows, matrix)
            rebuilt = self._rasterize(transformed_rows, signs, lshape_grid.resolution)
            moved_grid = lshape_grid.transformed(matrix)
            assert np.array_equal(rebuilt, moved_grid.occupancy)

    def test_extent_stays_positive(self, rng):
        rows = np.hstack([rng.normal(size=(4, 3)), rng.uniform(0.1, 1.0, size=(4, 3))])
        for matrix in symmetry_matrices(True):
            moved = transform_cover_vectors(rows, matrix)
            assert np.all(moved[:, 3:] > 0)

    def test_single_vector_input(self, rng):
        row = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        moved = transform_cover_vectors(row, np.eye(3))
        assert moved.shape == (6,)
        assert np.allclose(moved, row)

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(FeatureError):
            transform_cover_vectors(rng.normal(size=(2, 5)), np.eye(3))

"""Tests for the extension features: partial similarity, scaling toggle,
STR bulk loading into the array core and voxel-overlap metrics."""

import numpy as np
import pytest

from repro.core.min_matching import min_matching_distance
from repro.core.partial import partial_matching_distance
from repro.exceptions import DistanceError, FeatureError, IndexError_, VoxelizationError
from repro.features.scaling import denormalize_cover_vectors
from repro.index.arraycore import densify
from repro.index.pages import PageManager
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.normalize.pose import PoseInfo
from repro.voxel.grid import VoxelGrid
from repro.voxel.metrics import (
    dice_coefficient,
    intersection_over_union,
    symmetric_volume_difference,
    volume_difference_distance,
)
from tests.conftest import ranked


class TestPartialMatching:
    def test_i_equals_min_size_is_full_matching_without_weights(self, rng):
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        partial = partial_matching_distance(x, y, 4)
        full = min_matching_distance(x, y)
        assert partial == pytest.approx(full)

    def test_monotone_in_i(self, rng):
        x, y = rng.normal(size=(5, 3)), rng.normal(size=(6, 3))
        profile = [partial_matching_distance(x, y, i) for i in range(1, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(profile, profile[1:]))

    def test_shared_substructure_scores_zero(self, rng):
        """Two objects sharing 2 covers but differing elsewhere get
        partial distance 0 at i = 2."""
        shared = rng.normal(size=(2, 6))
        x = np.vstack([shared, rng.normal(size=(3, 6)) + 10])
        y = np.vstack([shared, rng.normal(size=(2, 6)) - 10])
        assert partial_matching_distance(x, y, 2) == pytest.approx(0.0)
        # The full matching distance is large — partial sees through it.
        assert min_matching_distance(x, y) > 10

    def test_brute_force_equivalence(self, rng):
        """The i cheapest pairs of the optimal partial matching equal an
        exhaustive search over all i-subsets/i-permutations."""
        from itertools import combinations, permutations

        for _ in range(10):
            m, n = rng.integers(2, 5, size=2)
            x, y = rng.normal(size=(m, 2)), rng.normal(size=(n, 2))
            i = int(rng.integers(1, min(m, n) + 1))
            best = np.inf
            for x_subset in combinations(range(m), i):
                for y_perm in permutations(range(n), i):
                    cost = sum(
                        np.linalg.norm(x[a] - y[b]) for a, b in zip(x_subset, y_perm)
                    )
                    best = min(best, cost)
            assert partial_matching_distance(x, y, i) == pytest.approx(best)

    def test_symmetry(self, rng):
        x, y = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        assert partial_matching_distance(x, y, 2) == pytest.approx(
            partial_matching_distance(y, x, 2)
        )

    def test_validation(self, rng):
        x, y = rng.normal(size=(3, 3)), rng.normal(size=(2, 3))
        with pytest.raises(DistanceError):
            partial_matching_distance(x, y, 0)
        with pytest.raises(DistanceError):
            partial_matching_distance(x, y, 3)  # > min(m, n)
        with pytest.raises(DistanceError):
            partial_matching_distance(x, rng.normal(size=(2, 4)), 1)


class TestScalingToggle:
    def test_denormalization_restores_world_units(self):
        pose = PoseInfo(scale_factors=(3.0, 1.0, 1.0), translation=(0, 0, 0))
        rows = np.array([[0.0, 0.0, 0.0, 0.5, 0.1, 0.1]])
        world = denormalize_cover_vectors(rows, pose)
        assert world[0, 3] == pytest.approx(1.5)  # 0.5 * max extent

    def test_scaled_copies_become_distinguishable(self, rng):
        """With scaling invariance ON two scaled copies have distance 0;
        with it OFF (denormalized features) they differ."""
        rows = np.hstack([rng.normal(size=(3, 3)) * 0.2, rng.uniform(0.1, 0.4, (3, 3))])
        small = PoseInfo((1.0, 0.8, 0.5), (0, 0, 0))
        large = PoseInfo((2.0, 1.6, 1.0), (0, 0, 0))
        invariant = min_matching_distance(rows, rows)
        assert invariant == pytest.approx(0.0)
        assert min_matching_distance(
            denormalize_cover_vectors(rows, small), denormalize_cover_vectors(rows, large)
        ) > 0.1

    def test_same_size_objects_unaffected_relative(self, rng):
        rows_a = np.hstack([rng.normal(size=(2, 3)), rng.uniform(0.1, 0.5, (2, 3))])
        rows_b = np.hstack([rng.normal(size=(2, 3)), rng.uniform(0.1, 0.5, (2, 3))])
        pose = PoseInfo((2.0, 2.0, 2.0), (0, 0, 0))
        base = min_matching_distance(rows_a, rows_b)
        denorm = min_matching_distance(
            denormalize_cover_vectors(rows_a, pose),
            denormalize_cover_vectors(rows_b, pose),
        )
        assert denorm == pytest.approx(2.0 * base)

    def test_validation(self, rng):
        pose = PoseInfo((1.0, 1.0, 1.0), (0, 0, 0))
        with pytest.raises(FeatureError):
            denormalize_cover_vectors(rng.normal(size=(2, 5)), pose)
        with pytest.raises(FeatureError):
            denormalize_cover_vectors(rng.normal(size=(2, 6)), pose, margin_fraction=1.0)


class TestBulkLoad:
    @pytest.mark.parametrize("tree_class", [RStarTree, XTree], ids=["rstar", "xtree"])
    def test_queries_match_incremental_tree(self, tree_class, rng):
        points = rng.random(size=(800, 5))
        packed = densify(points, np.arange(800))
        packed.check_invariants()
        incremental = tree_class(5)
        for i, point in enumerate(points):
            incremental.insert(point, i)
        query = rng.random(5)
        assert [o for o, _ in ranked(packed, query, 10)] == [
            o for o, _ in incremental.knn(query, 10)
        ]

    def test_packed_tree_is_smaller(self, rng):
        points = rng.random(size=(1000, 4))
        packed = densify(points, np.arange(1000))
        incremental = RStarTree(4)
        for i, point in enumerate(points):
            incremental.insert(point, i)
        assert len(packed.arrays["node_level"]) <= incremental.node_count()

    def test_custom_oids(self, rng):
        points = rng.random(size=(20, 2))
        packed = densify(points, 100 + np.arange(20))
        assert ranked(packed, points[3], 1)[0][0] == 103

    def test_validation(self, rng):
        with pytest.raises(IndexError_):
            densify(np.empty((0, 3)), np.empty(0))
        with pytest.raises(IndexError_):
            densify(rng.random(size=(5, 3)), [1, 2])
        with pytest.raises(IndexError_):
            densify(rng.random(size=(5, 3)), np.arange(5), capacity=3)


class TestVoxelMetrics:
    def test_identical_grids(self, tire_grid):
        assert symmetric_volume_difference(tire_grid, tire_grid) == 0
        assert intersection_over_union(tire_grid, tire_grid) == pytest.approx(1.0)
        assert dice_coefficient(tire_grid, tire_grid) == pytest.approx(1.0)
        assert volume_difference_distance(tire_grid, tire_grid) == pytest.approx(0.0)

    def test_disjoint_grids(self):
        a = VoxelGrid.empty(6)
        a.occupancy[0, 0, 0] = True
        b = VoxelGrid.empty(6)
        b.occupancy[5, 5, 5] = True
        assert symmetric_volume_difference(a, b) == 2
        assert intersection_over_union(a, b) == 0.0
        assert volume_difference_distance(a, b) == pytest.approx(1.0)

    def test_empty_grids(self):
        a, b = VoxelGrid.empty(4), VoxelGrid.empty(4)
        assert intersection_over_union(a, b) == 1.0
        assert dice_coefficient(a, b) == 1.0

    def test_known_half_overlap(self):
        a = VoxelGrid.empty(4)
        a.occupancy[0:2, :, :] = True
        b = VoxelGrid.empty(4)
        b.occupancy[1:3, :, :] = True
        assert intersection_over_union(a, b) == pytest.approx(1 / 3)
        assert dice_coefficient(a, b) == pytest.approx(1 / 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(VoxelizationError):
            symmetric_volume_difference(VoxelGrid.empty(4), VoxelGrid.empty(5))

    def test_cover_sequence_error_agrees(self, tire_grid):
        """The cover extractor's reported error IS the symmetric volume
        difference of its approximation."""
        from repro.features.cover_sequence import extract_cover_sequence

        sequence = extract_cover_sequence(tire_grid, 5)
        approx = VoxelGrid(sequence.approximation())
        assert symmetric_volume_difference(tire_grid, approx) == sequence.errors[-1]

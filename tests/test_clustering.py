"""Tests for OPTICS, reachability plots and quality metrics."""

import numpy as np
import pytest

from repro.clustering.optics import (
    ClusterOrdering,
    distance_rows_from_matrix,
    distance_rows_from_sets,
    optics,
)
from repro.clustering.quality import (
    adjusted_rand_index,
    best_cut_quality,
    structure_contrast,
)
from repro.clustering.reachability import (
    auto_cut_level,
    cut_levels,
    extract_clusters,
    render_reachability_plot,
)
from repro.exceptions import ReproError


def blobs(rng, centers, n_per=30, scale=0.05, n_noise=8):
    points = np.vstack(
        [rng.normal(loc=c, scale=scale, size=(n_per, 2)) for c in centers]
    )
    noise = rng.uniform(-1, 2, size=(n_noise, 2))
    labels = np.concatenate(
        [
            np.repeat(np.arange(len(centers)), n_per),
            -np.arange(1, n_noise + 1),
        ]
    )
    return np.vstack([points, noise]), labels


def euclidean_matrix(points):
    diff = points[:, np.newaxis, :] - points[np.newaxis, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@pytest.fixture
def blob_ordering(rng):
    points, labels = blobs(rng, [(0, 0), (1, 0), (0.5, 1)])
    matrix = euclidean_matrix(points)
    return optics(len(points), distance_rows_from_matrix(matrix), min_pts=5), labels, matrix


class TestOptics:
    def test_ordering_is_permutation(self, blob_ordering):
        ordering, labels, _ = blob_ordering
        assert sorted(ordering.order) == list(range(len(labels)))

    def test_first_object_has_infinite_reachability(self, blob_ordering):
        ordering, _, _ = blob_ordering
        assert np.isinf(ordering.reachability[0])

    def test_clusters_are_contiguous_valleys(self, blob_ordering):
        ordering, labels, _ = blob_ordering
        clusters, _ = extract_clusters(ordering, 0.12)
        assert len(clusters) == 3
        for members in clusters:
            # Members of one valley share one ground-truth class.
            member_labels = [labels[m] for m in members if labels[m] >= 0]
            assert len(set(member_labels)) == 1

    def test_min_pts_one_chains_everything(self, rng):
        points, _ = blobs(rng, [(0, 0)], n_per=20, n_noise=0)
        matrix = euclidean_matrix(points)
        ordering = optics(len(points), distance_rows_from_matrix(matrix), min_pts=2)
        # With tiny min_pts every object is density-reachable.
        assert np.isfinite(ordering.reachability[1:]).all()

    def test_eps_limits_reachability(self, rng):
        points, _ = blobs(rng, [(0, 0), (5, 5)], n_per=15, n_noise=0)
        matrix = euclidean_matrix(points)
        ordering = optics(
            len(points), distance_rows_from_matrix(matrix), min_pts=3, eps=1.0
        )
        # The jump between the two far clusters must be infinite now.
        assert np.isinf(ordering.reachability).sum() >= 2

    def test_distance_rows_from_sets_matches_per_pair(self, rng):
        from repro.core.min_matching import min_matching_distance

        sets = [rng.normal(size=(rng.integers(1, 5), 4)) for _ in range(12)]
        rows_fn = distance_rows_from_sets(sets)
        for i in (0, 5, 11):
            reference = [min_matching_distance(sets[i], s) for s in sets]
            assert np.allclose(rows_fn(i), reference, atol=1e-9)

    def test_optics_on_sets_matches_matrix_path(self, rng):
        from repro.core.min_matching import min_matching_distance

        sets = [rng.normal(size=(rng.integers(1, 5), 4)) for _ in range(20)]
        via_sets = optics(len(sets), distance_rows_from_sets(sets), min_pts=3)
        matrix = np.zeros((20, 20))
        for i in range(20):
            for j in range(i + 1, 20):
                matrix[i, j] = matrix[j, i] = min_matching_distance(sets[i], sets[j])
        via_matrix = optics(len(sets), distance_rows_from_matrix(matrix), min_pts=3)
        assert np.array_equal(via_sets.order, via_matrix.order)
        assert np.allclose(via_sets.reachability, via_matrix.reachability, atol=1e-9)

    def test_deterministic(self, blob_ordering, rng):
        ordering, labels, matrix = blob_ordering
        again = optics(len(labels), distance_rows_from_matrix(matrix), min_pts=5)
        assert np.array_equal(ordering.order, again.order)

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            optics(0, lambda i: np.zeros(0))
        with pytest.raises(ReproError):
            optics(3, lambda i: np.zeros(3), min_pts=0)
        with pytest.raises(ReproError):
            optics(3, lambda i: np.zeros(3), eps=-1.0)

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ReproError):
            optics(3, lambda i: np.zeros(5))


class TestReachabilityPlot:
    def test_extract_noise_at_tiny_eps(self, blob_ordering):
        ordering, labels, _ = blob_ordering
        clusters, noise = extract_clusters(ordering, 1e-9)
        assert not clusters
        assert len(noise) == len(labels)

    def test_extract_everything_at_huge_eps(self, blob_ordering):
        ordering, labels, _ = blob_ordering
        clusters, noise = extract_clusters(ordering, 1e9)
        assert len(noise) == 0
        assert sum(len(c) for c in clusters) == len(labels)

    def test_partition_property(self, blob_ordering):
        ordering, labels, _ = blob_ordering
        for eps in (0.05, 0.12, 0.5):
            clusters, noise = extract_clusters(ordering, eps)
            members = sorted(m for c in clusters for m in c) + sorted(noise)
            assert sorted(members) == list(range(len(labels)))

    def test_render_contains_bars_and_title(self, blob_ordering):
        ordering, _, _ = blob_ordering
        art = render_reachability_plot(ordering, height=6, title="demo-title")
        assert "demo-title" in art
        assert "#" in art and "|" in art

    def test_render_aggregates_wide_orderings(self, blob_ordering):
        ordering, _, _ = blob_ordering
        art = render_reachability_plot(ordering, height=5, max_width=40)
        longest = max(len(line) for line in art.splitlines())
        assert longest <= 45

    def test_cut_levels_are_sorted_unique(self, blob_ordering):
        ordering, _, _ = blob_ordering
        levels = cut_levels(ordering, 10)
        assert np.all(np.diff(levels) > 0)

    def test_auto_cut_level_is_interior_quantile(self, blob_ordering):
        ordering, _, _ = blob_ordering
        finite = ordering.reachability[np.isfinite(ordering.reachability)]
        level = auto_cut_level(ordering)
        assert finite.min() <= level <= finite.max()
        assert level == pytest.approx(float(np.quantile(finite, 0.4)))

    def test_auto_cut_level_all_infinite(self):
        ordering = ClusterOrdering(
            order=np.arange(3),
            reachability=np.full(3, np.inf),
            core_distances=np.full(3, np.inf),
        )
        assert auto_cut_level(ordering) == 0.0

    def test_auto_cut_level_validates_quantile(self, blob_ordering):
        ordering, _, _ = blob_ordering
        with pytest.raises(ReproError):
            auto_cut_level(ordering, quantile=1.5)

    def test_validation(self, blob_ordering):
        ordering, _, _ = blob_ordering
        with pytest.raises(ReproError):
            extract_clusters(ordering, -0.1)
        with pytest.raises(ReproError):
            render_reachability_plot(ordering, height=1)


class TestQualityMetrics:
    def test_ari_perfect_and_random(self, rng):
        labels = np.repeat([0, 1, 2], 20)
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
        shuffled = rng.permutation(labels)
        assert abs(adjusted_rand_index(labels, shuffled)) < 0.2

    def test_ari_invariant_to_label_names(self):
        a = [0, 0, 1, 1, 2, 2]
        b = [5, 5, 9, 9, 7, 7]
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_ari_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_best_cut_finds_good_eps(self, blob_ordering):
        ordering, labels, _ = blob_ordering
        ari, eps = best_cut_quality(ordering, labels)
        assert ari > 0.85
        assert np.isfinite(eps)

    def test_structure_contrast_orders_plots(self, rng):
        """Clustered data produces more contrast than uniform data."""
        clustered, _ = blobs(rng, [(0, 0), (2, 2)], n_per=40, n_noise=0)
        uniform = rng.uniform(0, 1, size=(80, 2))
        ordering_c = optics(
            len(clustered), distance_rows_from_matrix(euclidean_matrix(clustered)), 5
        )
        ordering_u = optics(
            len(uniform), distance_rows_from_matrix(euclidean_matrix(uniform)), 5
        )
        assert structure_contrast(ordering_c) > structure_contrast(ordering_u)

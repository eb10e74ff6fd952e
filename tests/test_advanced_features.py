"""Tests for beam cover search, ξ-cluster extraction, R*-tree deletion
and incremental ranking."""

import numpy as np
import pytest

from repro.clustering.optics import distance_rows_from_matrix, optics
from repro.clustering.xi import XiCluster, extract_xi_clusters, hierarchy_pairs
from repro.core.min_matching import min_matching_distance
from repro.core.queries import FilterRefineEngine
from repro.core.ranking import incremental_ranking
from repro.exceptions import FeatureError, ReproError
from repro.features.beam import all_box_gains, beam_cover_search
from repro.features.cover_sequence import extract_cover_sequence, max_sum_box
from repro.geometry.sdf import Box, Torus
from repro.index.rstar import RStarTree
from repro.voxel.voxelize import voxelize_solid
from tests.conftest import random_vector_sets


class TestAllBoxGains:
    def test_top_one_matches_max_sum_box(self, rng):
        for _ in range(10):
            weights = rng.normal(size=(5, 5, 5))
            best, lower, upper = max_sum_box(weights)
            if best <= 0:
                continue
            gains = all_box_gains(weights, 1)
            assert gains[0][0] == pytest.approx(best)

    def test_sorted_descending_positive(self, rng):
        weights = rng.normal(size=(4, 4, 4))
        gains = [g for g, _, _ in all_box_gains(weights, 20)]
        assert gains == sorted(gains, reverse=True)
        assert all(g > 0 for g in gains)

    def test_gain_realization(self, rng):
        weights = rng.normal(size=(5, 4, 3))
        for gain, lower, upper in all_box_gains(weights, 5):
            realized = weights[
                lower[0] : upper[0] + 1, lower[1] : upper[1] + 1, lower[2] : upper[2] + 1
            ].sum()
            assert realized == pytest.approx(gain)

    def test_validation(self):
        with pytest.raises(FeatureError):
            all_box_gains(np.zeros((3, 3)), 1)
        with pytest.raises(FeatureError):
            all_box_gains(np.zeros((3, 3, 3)), 0)


class TestBeamSearch:
    def test_width_one_single_candidate_equals_greedy(self, tire_grid):
        greedy = extract_cover_sequence(tire_grid, k=5)
        beam = beam_cover_search(tire_grid, k=5, beam_width=1, candidates_per_sign=1)
        assert beam.final_error == greedy.final_error
        assert [c.sign for c in beam.covers] == [c.sign for c in greedy.covers]

    def test_never_worse_than_greedy(self, rng):
        from repro.datasets.parts import make_part

        for family in ("tire", "door", "engine_block", "wing"):
            grid = voxelize_solid(make_part(family, rng, place=False).solid, 12)
            greedy = extract_cover_sequence(grid, k=4)
            beam = beam_cover_search(grid, k=4, beam_width=4, candidates_per_sign=3)
            assert beam.final_error <= greedy.final_error, family

    def test_beam_can_beat_greedy(self):
        """A shape engineered so the greedy first pick is suboptimal:
        the best single box overlaps both arms, but the optimal 2-cover
        solution uses the two arms separately."""
        # Cross of two perpendicular bars: greedy k=2 leaves error, a
        # wider beam can find the exact decomposition for k=3.
        cross = Box(size=(2.0, 0.6, 0.4)) | Box(size=(0.6, 2.0, 0.4))
        grid = voxelize_solid(cross, resolution=12, supersample=1)
        greedy = extract_cover_sequence(grid, k=2)
        beam = beam_cover_search(grid, k=2, beam_width=6, candidates_per_sign=6)
        assert beam.final_error <= greedy.final_error

    def test_feature_compatibility(self, tire_grid):
        """Beam results are ordinary CoverSequences usable downstream."""
        beam = beam_cover_search(tire_grid, k=5, beam_width=3)
        rows = beam.feature_vectors()
        assert rows.shape[1] == 6
        assert (beam.approximation() ^ tire_grid.occupancy).sum() == beam.final_error

    def test_validation(self, tire_grid):
        with pytest.raises(FeatureError):
            beam_cover_search(tire_grid, k=0)
        with pytest.raises(FeatureError):
            beam_cover_search(tire_grid, k=3, beam_width=0)


class TestXiExtraction:
    @staticmethod
    def _nested_ordering():
        """A synthetic reachability plot with a cluster hierarchy:
        positions 1-40 form a supercluster at level ~0.5 containing two
        subclusters at ~0.1."""
        values = np.full(60, 2.0)
        values[0] = np.inf
        values[1:41] = 0.5
        values[5:20] = 0.1
        values[25:40] = 0.1
        return optics_like(values)

    def test_hierarchy_found(self):
        ordering = self._nested_ordering()
        clusters = extract_xi_clusters(ordering, xi=0.3, min_cluster_size=4)
        assert clusters, "no clusters extracted"
        pairs = hierarchy_pairs(clusters)
        assert pairs, "no nesting found"
        parent, child = pairs[0]
        assert parent.size > child.size

    def test_flat_plot_has_no_clusters(self):
        values = np.full(30, 1.0)
        values[0] = np.inf
        ordering = optics_like(values)
        assert extract_xi_clusters(ordering, xi=0.1) == []

    def test_real_blobs(self, rng):
        points = np.vstack(
            [rng.normal(loc=c, scale=0.05, size=(30, 2)) for c in ((0, 0), (2, 2))]
        )
        diff = points[:, np.newaxis, :] - points[np.newaxis, :, :]
        matrix = np.sqrt((diff * diff).sum(axis=2))
        ordering = optics(len(points), distance_rows_from_matrix(matrix), min_pts=4)
        clusters = extract_xi_clusters(ordering, xi=0.2, min_cluster_size=10)
        assert len(clusters) >= 1
        # Every extracted cluster is label-pure (the blobs are far apart).
        for cluster in clusters:
            labels = {0 if obj < 30 else 1 for obj in cluster.objects}
            assert len(labels) == 1

    def test_validation(self):
        ordering = optics_like(np.ones(10))
        with pytest.raises(ReproError):
            extract_xi_clusters(ordering, xi=0.0)
        with pytest.raises(ReproError):
            extract_xi_clusters(ordering, min_cluster_size=1)


def optics_like(values: np.ndarray):
    """Wrap a raw reachability array into a ClusterOrdering."""
    from repro.clustering.optics import ClusterOrdering

    n = len(values)
    return ClusterOrdering(
        order=np.arange(n),
        reachability=np.asarray(values, dtype=float),
        core_distances=np.zeros(n),
    )


class TestDeletion:
    def test_delete_and_requery(self, rng):
        points = rng.random(size=(400, 3))
        tree = RStarTree(3)
        for i, point in enumerate(points):
            tree.insert(point, i)
        removed = set()
        for i in range(0, 400, 3):
            assert tree.delete(points[i], i)
            removed.add(i)
        tree.validate()
        assert tree.size == 400 - len(removed)
        query = rng.random(3)
        survivors = [i for i in range(400) if i not in removed]
        brute = sorted(survivors, key=lambda i: (np.linalg.norm(points[i] - query), i))[:5]
        assert [oid for oid, _ in tree.knn(query, 5)] == brute

    def test_delete_missing_returns_false(self, rng):
        tree = RStarTree(3)
        tree.insert(np.zeros(3), 0)
        assert not tree.delete(np.ones(3), 0)
        assert not tree.delete(np.zeros(3), 99)
        assert tree.size == 1

    def test_delete_everything(self, rng):
        points = rng.random(size=(60, 2))
        tree = RStarTree(2)
        for i, point in enumerate(points):
            tree.insert(point, i)
        for i, point in enumerate(points):
            assert tree.delete(point, i)
        assert tree.size == 0
        assert tree.range_search(np.array([0.5, 0.5]), 10.0) == []

    def test_interleaved_insert_delete(self, rng):
        tree = RStarTree(2)
        alive = {}
        next_id = 0
        for _ in range(500):
            if alive and rng.random() < 0.4:
                oid = list(alive)[int(rng.integers(len(alive)))]
                assert tree.delete(alive.pop(oid), oid)
            else:
                point = rng.random(2)
                tree.insert(point, next_id)
                alive[next_id] = point
                next_id += 1
        tree.validate()
        assert tree.size == len(alive)


class TestIncrementalRanking:
    def test_yields_ascending_exact_distances(self, rng):
        sets = random_vector_sets(rng, 80)
        engine = FilterRefineEngine(sets, capacity=7)
        query = rng.normal(size=(3, 6))
        stream = list(incremental_ranking(engine, query))
        assert len(stream) == 80
        distances = [d for _, d in stream]
        assert distances == sorted(distances)

    def test_matches_brute_force_order(self, rng):
        sets = random_vector_sets(rng, 60)
        engine = FilterRefineEngine(sets, capacity=7)
        query = rng.normal(size=(4, 6))
        stream = [oid for oid, _ in incremental_ranking(engine, query)]
        brute = sorted(
            range(60), key=lambda i: (min_matching_distance(query, sets[i]), i)
        )
        # Ties may permute; compare distances instead of ids.
        got = [min_matching_distance(query, sets[i]) for i in stream]
        want = [min_matching_distance(query, sets[i]) for i in brute]
        assert got == pytest.approx(want)

    def test_lazy_refinement(self, rng):
        """Consuming only the first results must not refine everything."""
        cluster_a = [rng.normal(size=(3, 6)) * 0.1 for _ in range(40)]
        cluster_b = [rng.normal(size=(3, 6)) * 0.1 + 50.0 for _ in range(40)]
        calls = []

        def counting(a, b):
            calls.append(1)
            return min_matching_distance(a, b)

        engine = FilterRefineEngine(
            cluster_a + cluster_b, capacity=7, exact_distance=counting
        )
        stream = incremental_ranking(engine, cluster_a[0])
        for _ in range(5):
            next(stream)
        assert 5 <= len(calls) < 60  # far-cluster objects were not refined

    def test_yields_external_ids_in_knn_order(self, rng):
        """Object ids, not row positions — on sparse ids, and after a
        removal has moved the last row into the hole."""
        sets = random_vector_sets(rng, 6)
        engine = FilterRefineEngine(sets, capacity=7, oids=[10, 20, 30, 40, 50, 60])
        query = sets[2]

        def check():
            stream = list(incremental_ranking(engine, query))
            results, _ = engine.knn_query(query, len(engine))
            assert stream == [(m.object_id, m.distance) for m in results]
            return stream

        assert check()[0] == (30, 0.0)
        engine.remove(10)  # oid 60 now sits in row 0
        assert engine.oids.tolist()[0] == 60
        assert check()[0] == (30, 0.0)

    def test_equal_distances_come_out_by_ascending_id(self):
        twin = np.ones((2, 3))
        engine = FilterRefineEngine([twin] * 4, capacity=2, oids=[8, 2, 6, 4])
        stream = list(incremental_ranking(engine, twin))
        assert stream == [(2, 0.0), (4, 0.0), (6, 0.0), (8, 0.0)]

"""Tests for filter-and-refine query processing."""

import numpy as np
import pytest

from repro.core.min_matching import min_matching_distance
from repro.core.queries import FilterRefineEngine, QueryMatch
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError, QueryError
from tests.conftest import random_vector_sets


@pytest.fixture
def engine(rng):
    sets = random_vector_sets(rng, 120, dim=6, max_size=7)
    return FilterRefineEngine(sets, capacity=7), sets


class TestKnn:
    def test_filter_equals_sequential(self, engine, rng):
        eng, sets = engine
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            filtered, _ = eng.knn_query(query, 7)
            sequential, _ = eng.knn_sequential(query, 7)
            assert [m.object_id for m in filtered] == [m.object_id for m in sequential]
            assert [m.distance for m in filtered] == pytest.approx(
                [m.distance for m in sequential]
            )

    def test_knn_distances_sorted(self, engine, rng):
        eng, _ = engine
        results, _ = eng.knn_query(rng.normal(size=(3, 6)), 10)
        distances = [m.distance for m in results]
        assert distances == sorted(distances)

    def test_self_query_returns_self_first(self, engine):
        eng, sets = engine
        results, _ = eng.knn_query(sets[42], 1)
        assert results[0].object_id == 42
        assert results[0].distance == pytest.approx(0.0)

    def test_pruning_happens(self, rng):
        """Clustered data must let the centroid filter skip refinements."""
        # Two well-separated clusters of sets.
        cluster_a = [rng.normal(size=(3, 6)) * 0.1 for _ in range(50)]
        cluster_b = [rng.normal(size=(3, 6)) * 0.1 + 100.0 for _ in range(50)]
        eng = FilterRefineEngine(cluster_a + cluster_b, capacity=7)
        _, stats = eng.knn_query(cluster_a[0], 5)
        assert stats.exact_computations < 100
        assert stats.pruned > 0

    def test_k_larger_than_database(self, engine, rng):
        eng, sets = engine
        results, _ = eng.knn_query(rng.normal(size=(2, 6)), len(sets) + 50)
        assert len(results) == len(sets)

    def test_invalid_k_rejected(self, engine, rng):
        eng, _ = engine
        with pytest.raises(QueryError):
            eng.knn_query(rng.normal(size=(2, 6)), 0)


class TestRange:
    def test_range_results_complete_and_correct(self, engine, rng):
        eng, sets = engine
        query = rng.normal(size=(4, 6))
        epsilon = 4.0
        results, _ = eng.range_query(query, epsilon)
        brute = {
            i
            for i, s in enumerate(sets)
            if min_matching_distance(query, s) <= epsilon
        }
        assert {m.object_id for m in results} == brute

    def test_zero_epsilon_finds_exact_copy(self, engine):
        eng, sets = engine
        results, _ = eng.range_query(sets[7], 1e-9)
        assert 7 in {m.object_id for m in results}

    def test_negative_epsilon_rejected(self, engine, rng):
        eng, _ = engine
        with pytest.raises(QueryError):
            eng.range_query(rng.normal(size=(2, 6)), -1.0)


class TestBlockedRefinement:
    """The blocked batch refinement must be invisible in the results."""

    def test_block_sizes_agree(self, engine, rng):
        eng, sets = engine
        for block_size in (1, 3, 16, 64, 1000):
            other = FilterRefineEngine(sets, capacity=7, block_size=block_size)
            for qi in (0, 42):
                expected, _ = eng.knn_query(sets[qi], 6)
                got, _ = other.knn_query(sets[qi], 6)
                assert [m.object_id for m in got] == [m.object_id for m in expected]
                assert [m.distance for m in got] == [m.distance for m in expected]

    def test_block_size_one_is_strictly_sequential(self, engine, rng):
        eng, sets = engine
        sequential = FilterRefineEngine(sets, capacity=7, block_size=1)
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            _, stats = sequential.knn_query(query, 5)
            assert stats.extra_refinements == 0

    def test_extra_refinements_bounded_by_block(self, engine, rng):
        eng, sets = engine
        sequential = FilterRefineEngine(sets, capacity=7, block_size=1)
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            _, blocked_stats = eng.knn_query(query, 5)
            _, seq_stats = sequential.knn_query(query, 5)
            assert blocked_stats.extra_refinements <= eng.block_size - 1
            # Exactly the overshoot beyond the sequential optimum.
            assert (
                blocked_stats.exact_computations - blocked_stats.extra_refinements
                == seq_stats.exact_computations
            )

    def test_matches_per_pair_refinement(self, engine, rng):
        """The batch kernel and a per-pair exact_distance engine agree."""
        eng, sets = engine
        per_pair = FilterRefineEngine(
            sets, capacity=7, exact_distance=min_matching_distance
        )
        query = rng.normal(size=(4, 6))
        batched, _ = eng.knn_query(query, 8)
        looped, _ = per_pair.knn_query(query, 8)
        assert [m.object_id for m in batched] == [m.object_id for m in looped]
        assert [m.distance for m in batched] == pytest.approx(
            [m.distance for m in looped], abs=1e-9
        )
        batched_range, _ = eng.range_query(query, 4.0)
        looped_range, _ = per_pair.range_query(query, 4.0)
        assert [m.object_id for m in batched_range] == [
            m.object_id for m in looped_range
        ]

    def test_invalid_block_size_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine([rng.normal(size=(2, 6))], capacity=7, block_size=0)


class TestConstruction:
    def test_empty_database_rejected(self):
        with pytest.raises(QueryError):
            FilterRefineEngine([], capacity=7)

    def test_oversized_set_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine([rng.normal(size=(9, 6))], capacity=7)

    def test_inconsistent_dimensions_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine(
                [rng.normal(size=(2, 6)), rng.normal(size=(2, 5))], capacity=7
            )

    def test_vector_set_inputs(self, rng):
        sets = [VectorSet(rng.normal(size=(3, 6)), capacity=7) for _ in range(10)]
        eng = FilterRefineEngine(sets, capacity=7)
        results, _ = eng.knn_query(sets[0], 3)
        assert results[0].object_id == 0

    def test_custom_ranker_is_used(self, engine, rng):
        """A chunk source that yields in ascending centroid order must
        give the same results and stats as the built-in scan — however
        it cuts the ranking into chunks."""
        eng, sets = engine
        query = rng.normal(size=(3, 6))
        calls = []

        def ranker(center):
            calls.append(center)
            dists = np.linalg.norm(eng.centroids - center, axis=1)
            order = np.argsort(dists, kind="stable")
            for start in range(0, len(order), 7):
                part = order[start : start + 7]
                yield part, dists[part]

        without, plain_stats = eng.knn_query(query, 5)
        with_ranker, stats = eng.knn_query(query, 5, centroid_ranker=ranker)
        assert with_ranker == without
        assert stats == plain_stats
        in_range, range_stats = eng.range_query(query, 9.0, centroid_ranker=ranker)
        assert (in_range, range_stats) == eng.range_query(query, 9.0)
        assert len(calls) == 2

    def test_unknown_oid_chunk_rejected(self, engine, rng):
        eng, sets = engine
        query = rng.normal(size=(3, 6))

        def ranker(center):
            yield np.array([3, len(sets) + 5]), np.array([0.0, 0.1])

        with pytest.raises(QueryError, match=f"unknown object id {len(sets) + 5}"):
            eng.knn_query(query, 5, centroid_ranker=ranker)
        with pytest.raises(QueryError, match="unknown object id"):
            eng.range_query(query, 1e9, centroid_ranker=ranker)
        with pytest.raises(QueryError, match="unknown object id -1"):
            eng.knn_refine_subset(query, 5, [0, -1])

    def test_unsorted_oids_answer_like_sorted(self, rng):
        sets = random_vector_sets(rng, 60, dim=6, max_size=7)
        oids = (rng.permutation(60) * 3 + 11).tolist()
        by_oid = sorted(zip(oids, sets), key=lambda pair: pair[0])
        shuffled = FilterRefineEngine(sets, capacity=7, oids=oids)
        ordered = FilterRefineEngine(
            [s for _, s in by_oid], capacity=7, oids=[o for o, _ in by_oid]
        )
        subset = sorted(oids)[::4]
        for _ in range(4):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            assert shuffled.knn_query(query, 6) == ordered.knn_query(query, 6)
            assert shuffled.range_query(query, 8.0) == ordered.range_query(query, 8.0)
            assert shuffled.knn_sequential(query, 6) == ordered.knn_sequential(query, 6)
            assert shuffled.knn_refine_subset(
                query, 6, subset
            ) == ordered.knn_refine_subset(query, 6, subset)

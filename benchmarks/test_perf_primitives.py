"""Micro-benchmarks of the performance-critical primitives.

These are classic pytest-benchmark timings (multiple rounds) of the
operations whose complexity the paper argues about:

* one minimal-matching distance on extracted cover sets (the O(k^3)
  assignment at the paper's k = 7 inside it; the solver alone is timed
  by test_perf_batch.py::test_bench_hungarian_batch),
* one greedy cover extraction at r = 15,
* the extended-centroid filter distance (the thing that replaces a
  matching in the filter step), and what a query pays per candidate for
  it against a batched matching — it must be orders of magnitude
  cheaper.
"""

import numpy as np
import pytest

from repro.core.batch import PackedSets, match_pairs
from repro.core.centroid import centroid_lower_bound, extended_centroid
from repro.core.min_matching import min_matching_distance
from repro.core.queries import FilterRefineEngine
from repro.features.cover_sequence import extract_cover_sequence
from repro.geometry.sdf import Box, Torus
from repro.voxel.voxelize import voxelize_solid


@pytest.fixture(scope="module")
def cover_sets():
    rng = np.random.default_rng(0)
    return [rng.normal(size=(7, 6)) for _ in range(2)]


def test_bench_min_matching_distance(benchmark, cover_sets):
    benchmark(min_matching_distance, cover_sets[0], cover_sets[1])


def test_bench_centroid_filter_distance(benchmark, cover_sets):
    c_x = extended_centroid(cover_sets[0], 7)
    c_y = extended_centroid(cover_sets[1], 7)
    benchmark(centroid_lower_bound, c_x, c_y, 7)


def test_bench_cover_extraction_r15(benchmark):
    grid = voxelize_solid(
        Torus(major_radius=1.0, minor_radius=0.35) | Box(size=(0.5, 0.5, 1.2)),
        resolution=15,
    )
    benchmark(extract_cover_sequence, grid, 7)


def test_bench_voxelize_solid_r15(benchmark):
    solid = Torus(major_radius=1.0, minor_radius=0.35)
    benchmark(voxelize_solid, solid, 15)


def test_filter_distance_is_orders_cheaper(benchmark):
    """The reason the filter step pays off: what a query pays per
    candidate for its filter distance is far below what it pays per
    refined candidate for a matching (asserted at 20x here).

    Both sides are timed as a query runs them, vectorised over n = 1 000
    stored sets: the engine's centroid pass (``_candidates``, one
    distance per stored centroid row) against one batched
    ``match_pairs`` call over the same n pairs.  Each side takes the
    best of several repeats, so one scheduler hiccup cannot decide."""
    import time

    n, k = 1000, 7
    rng = np.random.default_rng(0)
    sets = [rng.normal(size=(k, 6)) for _ in range(n)]
    engine = FilterRefineEngine(sets, capacity=k)
    packed = PackedSets.pack(sets, capacity=k)
    query_centroid = extended_centroid(sets[0], k)
    left, right = np.zeros(n, dtype=np.intp), np.arange(n)

    def per_candidate(call, repeats=7):
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            walls.append(time.perf_counter() - start)
        return min(walls) / n

    def measure():
        matching = per_candidate(lambda: match_pairs(packed, left, right))
        filtering = per_candidate(lambda: engine._candidates(query_centroid))
        return matching, filtering

    matching_time, filter_time = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nper candidate: matching {matching_time * 1e6:.2f}us, "
          f"filter {filter_time * 1e6:.3f}us")
    assert matching_time > 20 * filter_time

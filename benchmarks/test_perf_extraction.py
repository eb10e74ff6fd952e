"""Micro-benchmarks of the cover-extraction fast path (PR 3).

Times the three levers the parallel-ingestion work added:

* the blocked exact max-sum-box kernel vs the dense reference tensor,
* full incremental greedy extraction vs the reference extractor,
* a warm content-addressed feature-cache lookup vs re-extraction.

The correctness of each lever is asserted inline (bit-identical results)
before anything is timed.
"""

import numpy as np
import pytest

from repro.features.cache import FeatureCache, feature_cache_key
from repro.features.cover_sequence import extract_cover_sequence, max_sum_box
from repro.features.vector_set_model import VectorSetModel
from repro.geometry.sdf import Box, Torus
from repro.voxel.voxelize import voxelize_solid


@pytest.fixture(scope="module")
def grid_r15():
    return voxelize_solid(
        Torus(major_radius=1.0, minor_radius=0.35) | Box(size=(0.5, 0.5, 1.2)),
        resolution=15,
    )


@pytest.fixture(scope="module")
def weights_r15(grid_r15):
    return grid_r15.occupancy.astype(np.int8) * 2 - 1


def test_bench_max_sum_box_reference(benchmark, weights_r15):
    benchmark(max_sum_box, weights_r15, engine="reference")


def test_bench_max_sum_box_blocked(benchmark, weights_r15):
    expected = max_sum_box(weights_r15, engine="reference")
    got = max_sum_box(weights_r15)
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])
    benchmark(max_sum_box, weights_r15)


def test_bench_extraction_reference_r15(benchmark, grid_r15):
    benchmark(extract_cover_sequence, grid_r15, 7, engine="reference")


def test_bench_extraction_incremental_r15(benchmark, grid_r15):
    reference = extract_cover_sequence(grid_r15, 7, engine="reference")
    incremental = extract_cover_sequence(grid_r15, 7, engine="incremental")
    assert incremental.covers == reference.covers
    assert incremental.errors == reference.errors
    benchmark(extract_cover_sequence, grid_r15, 7, engine="incremental")


def test_bench_warm_cache_lookup(benchmark, grid_r15, tmp_path_factory):
    model = VectorSetModel(k=7)
    cache = FeatureCache(root=tmp_path_factory.mktemp("feature-cache"))
    expected = model.extract(grid_r15)
    cache.put(grid_r15, model, expected)
    assert cache.path_for(feature_cache_key(grid_r15, model)).exists()

    hit = benchmark(cache.get, grid_r15, model)
    assert hit is not None
    assert np.array_equal(hit, expected)

"""Micro-benchmark of a warm content-addressed feature-cache lookup.

The end-to-end benchmark (``benchmarks/e2e``) times ``get_or_extract``
per op, hits and misses together (``features.extract_ms``), and reports
the hit share; no layer metric times a hit alone, so this bench is where
the cost of one warm lookup (hash the grid, read one small array) is
measured.  The hit is checked bit-identical to a fresh extraction before
anything is timed.  Extraction results are held to the full-tensor
oracle by ``tests/test_extraction_engine.py``.
"""

import numpy as np
import pytest

from repro.features.cache import FeatureCache, feature_cache_key
from repro.features.vector_set_model import VectorSetModel
from repro.geometry.sdf import Box, Torus
from repro.voxel.voxelize import voxelize_solid


@pytest.fixture(scope="module")
def grid_r15():
    return voxelize_solid(
        Torus(major_radius=1.0, minor_radius=0.35) | Box(size=(0.5, 0.5, 1.2)),
        resolution=15,
    )


def test_bench_warm_cache_lookup(benchmark, grid_r15, tmp_path_factory):
    model = VectorSetModel(k=7)
    cache = FeatureCache(root=tmp_path_factory.mktemp("feature-cache"))
    expected = model.extract(grid_r15)
    cache.put(grid_r15, model, expected)
    assert cache.path_for(feature_cache_key(grid_r15, model)).exists()

    hit = benchmark(cache.get, grid_r15, model)
    assert hit is not None
    assert np.array_equal(hit, expected)

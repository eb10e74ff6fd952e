"""The incremental extractor and its pruned search vs the oracle.

The production max-sum-box search bounds every x-pair by its slab rows,
scans x-pairs best first and drops those whose bound is below the best
value found; the incremental greedy extractor gives its "-" search a
floor.  Both are required to be *bit-identical* to the full-tensor
oracle of ``tests/cover_oracle.py`` — same covers, same signs, same
error sequence, same coordinates — so every test here compares against
that oracle (or a brute force) rather than against golden values.  The
small-budget cases lower ``DEFAULT_BLOCK_BYTES``, the one memory budget
every search reads.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets import make_aircraft_dataset
from repro.exceptions import FeatureError
from repro.features import cover_sequence
from repro.features.cover_sequence import (
    DEFAULT_BLOCK_BYTES,
    _build_sat_z,
    _pair_indices,
    _sat_dtypes,
    _search_above,
    _slab_row_bounds,
    extract_cover_sequence,
)
from repro.features.vector_set_model import VectorSetModel
from repro.pipeline import Pipeline
from repro.voxel.grid import VoxelGrid
from tests import cover_oracle


def budget(block_bytes):
    """Cap every max-sum-box search at *block_bytes* inside a with block."""
    return mock.patch.object(cover_sequence, "DEFAULT_BLOCK_BYTES", block_bytes)


@st.composite
def tie_heavy_weights(draw, max_side=7):
    """Cubic int8 ±1 grids built to tie: many boxes share the best sum."""
    r = draw(st.integers(2, max_side))
    kind = draw(st.sampled_from(["periodic", "mirrored", "voxels", "blocks"]))
    if kind == "periodic":
        periods = draw(st.tuples(*[st.integers(1, 3)] * 3))
        offsets = draw(st.tuples(*[st.integers(0, 2)] * 3))
        x, y, z = np.indices((r,) * 3)
        cell = (x + offsets[0]) // periods[0]
        cell = cell + (y + offsets[1]) // periods[1] + (z + offsets[2]) // periods[2]
        positive = cell % 2 == 0
    elif kind == "mirrored":
        axis = draw(st.integers(0, 2))
        half_shape = [r] * 3
        half_shape[axis] = (r + 1) // 2
        half = draw(arrays(bool, tuple(half_shape), elements=st.booleans()))
        positive = np.concatenate([half, np.flip(half, axis)], axis=axis)
        positive = positive[:r, :r, :r]
    elif kind == "voxels":
        positive = np.zeros((r,) * 3, dtype=bool)
        for _ in range(draw(st.integers(1, 4))):
            positive[tuple(draw(st.tuples(*[st.integers(0, r - 1)] * 3)))] = True
    else:
        positive = np.zeros((r,) * 3, dtype=bool)
        side = draw(st.integers(1, max(1, r // 2)))
        for _ in range(draw(st.integers(1, 3))):
            lo = draw(st.tuples(*[st.integers(0, r - side)] * 3))
            positive[tuple(slice(c, c + side) for c in lo)] = True
    return np.where(positive, np.int8(1), np.int8(-1))


def brute_force_pair_values(weights):
    """Exact best box sum per x-pair (in ``_pair_indices`` order)."""
    x_lo, x_hi = _pair_indices(weights.shape[0])
    values = []
    for lo, hi in zip(x_lo, x_hi):
        slab = weights[lo:hi].astype(np.int64).sum(axis=0)
        sat = np.zeros((slab.shape[0] + 1, slab.shape[1] + 1), dtype=np.int64)
        sat[1:, 1:] = slab.cumsum(0).cumsum(1)
        values.append(
            max(
                sat[y2, z2] - sat[y1, z2] - sat[y2, z1] + sat[y1, z1]
                for y1 in range(slab.shape[0])
                for y2 in range(y1 + 1, slab.shape[0] + 1)
                for z1 in range(slab.shape[1])
                for z2 in range(z1 + 1, slab.shape[1] + 1)
            )
        )
    return np.array(values)


def assert_same_sequence(got, expected):
    assert got.covers == expected.covers
    assert got.errors == expected.errors


def assert_same_box(got, expected):
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])


class TestBlockedMaxSumBox:
    @pytest.mark.parametrize("block_bytes", [2_000, 50_000, DEFAULT_BLOCK_BYTES])
    def test_matches_reference_on_random_grids(self, rng, block_bytes):
        searched = 0
        for _ in range(25):
            shape = tuple(rng.integers(2, 9, size=3))
            weights = rng.integers(-3, 4, size=shape).astype(np.int8)
            if not (weights > 0).any():
                continue
            with budget(block_bytes):
                found = _search_above(weights)
            assert_same_box(found, cover_oracle.max_sum_box(weights))
            searched += 1
        assert searched > 20

    def test_float_weights_are_refused(self, rng):
        # The search is exact on integer grids only (the extractor's are
        # int8); a float grid is refused, never truncated to integers.
        for weights in (rng.normal(size=(6, 7, 5)), np.full((3, 3, 3), 2.0)):
            with pytest.raises(FeatureError, match="integers"):
                _search_above(weights)

    def test_large_magnitude_weights_use_wide_dtypes(self, rng):
        # Sums near the int16 and int32 SAT limits: the scan must widen
        # instead of wrapping.
        weights = np.full((8, 8, 8), 60, dtype=np.int64)
        with budget(3_000):
            gain, lo, hi = _search_above(weights)
        assert gain == 60 * 8**3
        assert np.array_equal(lo, [0, 0, 0])
        assert np.array_equal(hi, [7, 7, 7])

        big = np.full((16, 16, 16), 2**18, dtype=np.int64)
        big[0, 0, 0] = -1
        with budget(100_000):
            gain, _, _ = _search_above(big)
        assert gain == 2**18 * (16**3 - 1) - 1


class TestPrunedSearch:
    @given(weights=tie_heavy_weights())
    def test_tie_heavy_boxes_match_reference(self, weights):
        assume((weights > 0).any())
        assert_same_box(_search_above(weights), cover_oracle.max_sum_box(weights))

    @given(
        weights=arrays(
            np.int8,
            st.tuples(*[st.integers(1, 7)] * 3),
            elements=st.sampled_from([0, 0, 0, 0, -2, -1, 1, 2]),
        )
    )
    def test_sparse_grids_match_reference_in_the_grid_frame(self, weights):
        # Zero borders make the search crop to the non-zero window; the
        # box must come back in the frame of the whole grid.
        assume((weights > 0).any())
        assert_same_box(_search_above(weights), cover_oracle.max_sum_box(weights))

    @given(
        weights=st.one_of(
            tie_heavy_weights(max_side=5),
            arrays(
                np.int8,
                st.tuples(*[st.integers(1, 5)] * 3),
                elements=st.integers(-3, 3),
            ),
        )
    )
    def test_slab_row_bound_is_never_below_a_pair_best(self, weights):
        sat_dtype, scan_dtype, sentinel = _sat_dtypes(weights)
        x_lo, x_hi = _pair_indices(weights.shape[0])
        with budget(500):
            bound = _slab_row_bounds(
                _build_sat_z(weights, sat_dtype), x_lo, x_hi, scan_dtype, sentinel
            )
        assert np.all(bound >= brute_force_pair_values(weights))

    @given(weights=tie_heavy_weights(), offset=st.integers(-3, 3))
    def test_floored_search_finds_only_boxes_above_the_floor(self, weights, offset):
        assume((weights > 0).any())
        unfloored = _search_above(weights)
        floor = unfloored[0] + offset  # at, just below and just above the best
        found = _search_above(weights, floor)
        if unfloored[0] > floor:
            assert found is not None
            assert_same_box(found, unfloored)
        else:
            assert found is None


class TestMemoryBudget:
    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_search_stays_within_twice_its_budget(self):
        cap = 2 * 1024 * 1024
        weights = np.random.default_rng(20030609).choice(
            np.array([-1, 1], dtype=np.int8), size=(40, 40, 40)
        )
        # The oracle's tensor would take ~220 MB here; the default budget
        # is the comparison (the result must not depend on the budget).
        expected = _search_above(weights)
        with budget(cap):
            peak, got = self.peak_bytes(lambda: _search_above(weights))
        assert_same_box(got, expected)
        assert peak <= 2 * cap, peak

    def test_resolution_64_extraction_stays_within_twice_its_budget(self):
        cap = 8 * 1024 * 1024
        occupancy = np.zeros((64, 64, 64), dtype=bool)
        occupancy[2:62, 2:62, 2:62] = True
        grid = VoxelGrid(occupancy)
        with budget(cap):
            peak, sequence = self.peak_bytes(lambda: extract_cover_sequence(grid, k=3))
        assert len(sequence.covers) == 1
        assert peak <= 2 * cap, peak


class TestResolution64Regression:
    def test_single_box_grid_under_fixed_block_budget(self):
        """A resolution-64 grid extracts exactly under an 8 MiB budget.

        The pre-PR-3 dense kernel needed the full O(r^4) difference
        tensor (~2 GiB at r = 64); the blocked kernel's peak memory is
        capped by the budget independent of resolution.
        """
        occupancy = np.zeros((64, 64, 64), dtype=bool)
        occupancy[2:62, 2:62, 2:62] = True
        with budget(8 * 1024 * 1024):
            sequence = extract_cover_sequence(VoxelGrid(occupancy), k=3)
        assert len(sequence.covers) == 1
        cover = sequence.covers[0]
        assert cover.sign == 1
        assert cover.lower == (2, 2, 2)
        assert cover.upper == (61, 61, 61)
        assert sequence.errors[-1] == 0


class TestIncrementalEngine:
    @given(
        occupancy=arrays(bool, (7, 7, 7), elements=st.booleans()),
        k=st.integers(1, 6),
        allow_subtraction=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_identical_to_reference(self, occupancy, k, allow_subtraction):
        assume(occupancy.any())
        grid = VoxelGrid(occupancy)
        reference = cover_oracle.extract_cover_sequence(grid, k, allow_subtraction)
        incremental = extract_cover_sequence(grid, k, allow_subtraction)
        assert_same_sequence(incremental, reference)

    @given(
        weights=tie_heavy_weights(),
        k=st.integers(1, 9),
        allow_subtraction=st.booleans(),
    )
    @settings(deadline=None)
    def test_identical_to_reference_on_tie_heavy_grids(
        self, weights, k, allow_subtraction
    ):
        grid = VoxelGrid(weights > 0)
        assume(not grid.is_empty())
        reference = cover_oracle.extract_cover_sequence(grid, k, allow_subtraction)
        incremental = extract_cover_sequence(grid, k, allow_subtraction)
        assert_same_sequence(incremental, reference)

    def test_identical_on_aircraft_parts(self):
        parts, _ = make_aircraft_dataset(240, seed=20030609)
        one_offs = [part for part in parts if part.family == "noise"][:4]
        members = [part for part in parts if part.family != "noise"][:20]
        assert len(one_offs) == 4
        pipeline = Pipeline(resolution=15)
        for part in members + one_offs:
            grid, _ = pipeline.process_solid(part.solid)
            reference = cover_oracle.extract_cover_sequence(grid, 7)
            incremental = extract_cover_sequence(grid, 7)
            assert_same_sequence(incremental, reference)

    @pytest.mark.parametrize("block_bytes", [3_000, None])
    def test_identical_on_shaped_grids(self, lshape_grid, tire_grid, block_bytes):
        for grid in (lshape_grid, tire_grid):
            reference = cover_oracle.extract_cover_sequence(grid, 7)
            with budget(block_bytes or DEFAULT_BLOCK_BYTES):
                incremental = extract_cover_sequence(grid, 7)
            assert_same_sequence(incremental, reference)


class TestExtractMany:
    def test_parallel_matches_serial(self, rng, lshape_grid, tire_grid, sphere_grid):
        grids = [lshape_grid, tire_grid, sphere_grid] * 2
        model = VectorSetModel(k=5)
        serial = model.extract_many(grids)
        parallel = model.extract_many(grids, n_jobs=4)
        assert len(parallel) == len(serial)
        for got, expected in zip(parallel, serial):
            assert np.array_equal(got, expected)

    def test_first_failure_raised_in_input_order(self, lshape_grid):
        class ExplodingModel(VectorSetModel):
            def extract(self, grid):
                if grid.count == 0:
                    raise FeatureError("empty grid")
                return super().extract(grid)

        empty = VoxelGrid(np.zeros((5, 5, 5), dtype=bool))
        with pytest.raises(FeatureError, match="empty grid"):
            ExplodingModel(k=3).extract_many([lshape_grid, empty, lshape_grid])


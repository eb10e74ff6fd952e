"""The incremental extraction engine and its pruned search vs the oracle.

The production max-sum-box search bounds every x-pair by its slab rows,
scans x-pairs best first and drops those whose bound is below the best
value found; the incremental greedy extractor gives its "-" search a
floor.  Both are required to be *bit-identical* to the reference path —
same covers, same signs, same error sequence, same coordinates — so
every test here compares against ``engine="reference"`` (or a brute
force) rather than against golden values.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets import make_aircraft_dataset
from repro.exceptions import FeatureError
from repro.features.cover_sequence import (
    DEFAULT_BLOCK_BYTES,
    _build_sat_z,
    _pair_indices,
    _sat_dtypes,
    _search_above,
    _slab_row_bounds,
    default_block_bytes,
    extract_cover_sequence,
    max_sum_box,
)
from repro.features.vector_set_model import VectorSetModel
from repro.pipeline import Pipeline
from repro.voxel.grid import VoxelGrid


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


class TestBlockedMaxSumBox:
    @pytest.mark.parametrize("block_bytes", [2_000, 50_000, DEFAULT_BLOCK_BYTES])
    def test_matches_reference_on_random_grids(self, rng, block_bytes):
        for _ in range(25):
            shape = tuple(rng.integers(2, 9, size=3))
            weights = rng.integers(-3, 4, size=shape).astype(np.int8)
            gain_ref, lo_ref, hi_ref = max_sum_box(weights, engine="reference")
            gain, lo, hi = max_sum_box(weights, block_bytes=block_bytes)
            assert gain == gain_ref
            assert np.array_equal(lo, lo_ref)
            assert np.array_equal(hi, hi_ref)

    def test_matches_reference_on_float_weights(self, rng):
        weights = rng.normal(size=(6, 7, 5))
        gain_ref, lo_ref, hi_ref = max_sum_box(weights, engine="reference")
        gain, lo, hi = max_sum_box(weights, block_bytes=4_000)
        assert gain == pytest.approx(gain_ref)
        assert np.array_equal(lo, lo_ref)
        assert np.array_equal(hi, hi_ref)

    def test_large_magnitude_weights_use_wide_dtypes(self, rng):
        # Sums near the int16 and int32 SAT limits: the scan must widen
        # instead of wrapping.
        weights = np.full((8, 8, 8), 60, dtype=np.int64)
        gain, lo, hi = max_sum_box(weights, block_bytes=3_000)
        assert gain == 60 * 8**3
        assert np.array_equal(lo, [0, 0, 0])
        assert np.array_equal(hi, [7, 7, 7])

        big = np.full((16, 16, 16), 2**18, dtype=np.int64)
        big[0, 0, 0] = -1
        gain, _, _ = max_sum_box(big, block_bytes=100_000)
        assert gain == 2**18 * (16**3 - 1) - 1

    def test_rejects_unknown_engine(self):
        with pytest.raises(FeatureError):
            max_sum_box(np.ones((2, 2, 2)), engine="turbo")


class TestPrunedSearch:
    @given(weights=tie_heavy_weights())
    def test_tie_heavy_boxes_match_reference(self, weights):
        gain_ref, lo_ref, hi_ref = max_sum_box(weights, engine="reference")
        gain, lo, hi = max_sum_box(weights)
        assert gain == gain_ref
        assert np.array_equal(lo, lo_ref)
        assert np.array_equal(hi, hi_ref)

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
        bound = _slab_row_bounds(
            _build_sat_z(weights, sat_dtype), x_lo, x_hi, scan_dtype, sentinel, 500
        )
        assert np.all(bound >= brute_force_pair_values(weights))

    @given(weights=tie_heavy_weights(), offset=st.integers(-3, 3))
    def test_floored_search_finds_only_boxes_above_the_floor(self, weights, offset):
        assume((weights > 0).any())
        unfloored = max_sum_box(weights)
        floor = unfloored[0] + offset  # at, just below and just above the best
        found = _search_above(weights, None, floor)
        if unfloored[0] > floor:
            assert found is not None
            assert found[0] == unfloored[0]
            assert np.array_equal(found[1], unfloored[1])
            assert np.array_equal(found[2], unfloored[2])
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
        budget = 2 * 1024 * 1024
        weights = np.random.default_rng(20030609).choice(
            np.array([-1, 1], dtype=np.int8), size=(40, 40, 40)
        )
        # The reference tensor would take ~220 MB here; the default budget
        # is the comparison (the result must not depend on the budget).
        expected = max_sum_box(weights)
        peak, got = self.peak_bytes(lambda: max_sum_box(weights, block_bytes=budget))
        assert got[0] == expected[0]
        assert np.array_equal(got[1], expected[1])
        assert np.array_equal(got[2], expected[2])
        assert peak <= 2 * budget, peak

    def test_resolution_64_extraction_stays_within_twice_its_budget(self):
        budget = 8 * 1024 * 1024
        occupancy = np.zeros((64, 64, 64), dtype=bool)
        occupancy[2:62, 2:62, 2:62] = True
        grid = VoxelGrid(occupancy)
        peak, sequence = self.peak_bytes(
            lambda: extract_cover_sequence(grid, k=3, block_bytes=budget)
        )
        assert len(sequence.covers) == 1
        assert peak <= 2 * budget, peak


class TestResolution64Regression:
    def test_single_box_grid_under_fixed_block_budget(self):
        """A resolution-64 grid extracts exactly under an 8 MiB budget.

        The pre-PR-3 dense kernel needed the full O(r^4) difference
        tensor (~2 GiB at r = 64); the blocked kernel's peak memory is
        capped by the budget independent of resolution.
        """
        occupancy = np.zeros((64, 64, 64), dtype=bool)
        occupancy[2:62, 2:62, 2:62] = True
        sequence = extract_cover_sequence(
            VoxelGrid(occupancy), k=3, block_bytes=8 * 1024 * 1024
        )
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
        reference = extract_cover_sequence(
            grid, k, allow_subtraction, engine="reference"
        )
        incremental = extract_cover_sequence(
            grid, k, allow_subtraction, engine="incremental"
        )
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
        reference = extract_cover_sequence(
            grid, k, allow_subtraction, engine="reference"
        )
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
            reference = extract_cover_sequence(grid, 7, engine="reference")
            incremental = extract_cover_sequence(grid, 7)
            assert_same_sequence(incremental, reference)

    @pytest.mark.parametrize("block_bytes", [3_000, None])
    def test_identical_on_shaped_grids(self, lshape_grid, tire_grid, block_bytes):
        for grid in (lshape_grid, tire_grid):
            reference = extract_cover_sequence(grid, 7, engine="reference")
            incremental = extract_cover_sequence(
                grid, 7, engine="incremental", block_bytes=block_bytes
            )
            assert_same_sequence(incremental, reference)

    def test_rejects_unknown_engine(self, lshape_grid):
        with pytest.raises(FeatureError):
            extract_cover_sequence(lshape_grid, 3, engine="bogus")

    def test_model_engine_parameter(self, lshape_grid):
        fast = VectorSetModel(k=5).extract(lshape_grid)
        slow = VectorSetModel(k=5, engine="reference").extract(lshape_grid)
        assert np.array_equal(fast, slow)


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


class TestBlockBudgetEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAXBOX_BLOCK_BYTES", "12345")
        assert default_block_bytes() == 12345

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAXBOX_BLOCK_BYTES", raising=False)
        assert default_block_bytes() == DEFAULT_BLOCK_BYTES

    @pytest.mark.parametrize("raw", ["zero?", "0", "-4"])
    def test_invalid_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_MAXBOX_BLOCK_BYTES", raw)
        with pytest.raises(FeatureError):
            default_block_bytes()

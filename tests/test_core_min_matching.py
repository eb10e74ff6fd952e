"""Tests for the minimal matching distance (Definition 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.min_matching import (
    as_set_array,
    euclidean_cross,
    euclidean_cross_reference,
    min_matching_distance,
    min_matching_match,
    squared_euclidean_cross,
    squared_euclidean_cross_reference,
)
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError
from tests.kuhn_munkres import definition_6

finite_sets = st.integers(1, 5).flatmap(
    lambda m: arrays(
        float, (m, 3), elements=st.floats(-50, 50, allow_nan=False, width=32)
    )
)


class TestCrossDistances:
    def test_euclidean_cross_matches_manual(self, rng):
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        cross = euclidean_cross(x, y)
        assert cross.shape == (4, 6)
        assert cross[2, 3] == pytest.approx(np.linalg.norm(x[2] - y[3]))

    def test_squared_is_square(self, rng):
        x, y = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        assert np.allclose(squared_euclidean_cross(x, y), euclidean_cross(x, y) ** 2)

    def test_gram_form_matches_broadcast_reference(self, rng):
        """The Gram-identity kernel agrees with the pre-optimization
        broadcast form, kept as an oracle."""
        for _ in range(10):
            x = rng.normal(size=(rng.integers(1, 9), 5)) * 10
            y = rng.normal(size=(rng.integers(1, 9), 5)) * 10
            assert np.allclose(
                squared_euclidean_cross(x, y),
                squared_euclidean_cross_reference(x, y),
                atol=1e-9,
            )
            assert np.allclose(
                euclidean_cross(x, y), euclidean_cross_reference(x, y), atol=1e-9
            )

    def test_gram_form_never_negative(self, rng):
        """Cancellation in ||x||^2 + ||y||^2 - 2 x.y can go below zero for
        near-identical rows; the clip must absorb it before the sqrt."""
        x = rng.normal(size=(50, 6))
        y = x + 1e-9
        sq = squared_euclidean_cross(x, y)
        assert np.all(sq >= 0.0)
        assert not np.any(np.isnan(euclidean_cross(x, y)))

    def test_identical_rows_are_exactly_zero(self, rng):
        """einsum's fixed summation order makes self-distances exact zeros
        (the engine's self-query guarantee depends on this)."""
        x = rng.normal(size=(20, 6)) * 100
        assert np.all(np.diag(squared_euclidean_cross(x, x)) == 0.0)
        assert np.all(np.diag(euclidean_cross(x, x)) == 0.0)

    @given(
        st.integers(1, 6).flatmap(
            lambda m: arrays(
                float, (m, 3), elements=st.floats(-100, 100, allow_nan=False, width=32)
            )
        ),
        st.integers(1, 6).flatmap(
            lambda n: arrays(
                float, (n, 3), elements=st.floats(-100, 100, allow_nan=False, width=32)
            )
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_gram_form_property(self, x, y):
        assert np.allclose(
            squared_euclidean_cross(x, y),
            squared_euclidean_cross_reference(x, y),
            rtol=1e-9,
            atol=1e-7,
        )


class TestMinMatching:
    def test_identical_sets_have_zero_distance(self, rng):
        x = rng.normal(size=(5, 6))
        assert min_matching_distance(x, x) == pytest.approx(0.0)

    def test_permutation_of_rows_has_zero_distance(self, rng):
        x = rng.normal(size=(6, 4))
        shuffled = x[rng.permutation(6)]
        assert min_matching_distance(x, shuffled) == pytest.approx(0.0)

    def test_symmetry(self, rng):
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(7, 3))
        assert min_matching_distance(x, y) == pytest.approx(min_matching_distance(y, x))

    def test_brute_force_equivalence_small(self, rng):
        """Exhaustively verify Definition 6 on sets of up to seven, the
        paper's k: every enumeration of the larger set, its first n
        elements matched to y in order, the rest paying their norm."""
        from itertools import permutations

        for _ in range(20):
            m, n = rng.integers(1, 8, size=2)
            if m < n:
                m, n = n, m
            x, y = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
            orders = np.array(list(permutations(range(m))))
            matched = np.linalg.norm(x[orders[:, :n]] - y, axis=2).sum(axis=1)
            unmatched = np.linalg.norm(x[orders[:, n:]], axis=2).sum(axis=1)
            best = (matched + unmatched).min()
            assert min_matching_distance(x, y) == pytest.approx(best)

    def test_size_mismatch_pays_weight(self):
        x = np.array([[3.0, 4.0]])  # norm 5
        y = np.array([[3.0, 4.0], [6.0, 8.0]])  # second element norm 10
        # Optimal: match identical pair, pay ||(6,8)|| = 10.
        assert min_matching_distance(x, y) == pytest.approx(10.0)

    def test_match_result_reports_pairs(self, rng):
        x = rng.normal(size=(3, 2))
        result = min_matching_match(x, x)
        assert result.is_identity
        assert len(result.pairs) == 3
        assert len(result.unmatched) == 0

    def test_match_result_non_identity(self):
        x = np.array([[0.0, 0.0], [10.0, 0.0]])
        y = np.array([[10.0, 0.0], [0.0, 0.0]])  # swapped order
        result = min_matching_match(x, y)
        assert not result.is_identity
        assert result.distance == pytest.approx(0.0)

    def test_unmatched_indices_point_into_larger_set(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(2, 3))
        result = min_matching_match(x, y)
        assert len(result.unmatched) == 3
        assert set(result.unmatched) <= set(range(5))

    def test_vector_set_wrapper(self, rng):
        """A :class:`VectorSet` measures like the array it wraps."""
        x = VectorSet(rng.normal(size=(3, 6)), capacity=7)
        y = VectorSet(rng.normal(size=(5, 6)), capacity=7)
        assert min_matching_distance(x, y) == pytest.approx(
            min_matching_distance(x.vectors, y.vectors)
        )

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(DistanceError):
            min_matching_distance(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))

    def test_empty_set_rejected(self):
        with pytest.raises(DistanceError):
            min_matching_distance(np.empty((0, 3)), np.zeros((1, 3)))

    def test_backends_agree(self, rng):
        """The one solver (scipy's) against the independent Kuhn–Munkres
        on broadcast distances of tests/kuhn_munkres.py."""
        for _ in range(20):
            x = rng.normal(size=(rng.integers(1, 8), 5))
            y = rng.normal(size=(rng.integers(1, 8), 5))
            assert min_matching_distance(x, y) == pytest.approx(definition_6(x, y))

    def test_pairs_never_empty_via_public_api(self, rng):
        """The smaller set is always fully matched, so `pairs` has at
        least one entry — the empty-matching guard in `is_identity` is
        defensive here (the batched kernel's omega-padded formulation
        *can* produce all-virtual matchings; see test_core_batch)."""
        for _ in range(10):
            x = rng.normal(size=(rng.integers(1, 6), 3))
            y = rng.normal(size=(rng.integers(1, 6), 3))
            result = min_matching_match(x, y)
            assert len(result.pairs) == min(len(x), len(y))

    def test_identity_flag_requires_identity_pairs(self, rng):
        x = rng.normal(size=(3, 4))
        assert min_matching_match(x, x).is_identity
        swapped = x[[1, 0, 2]]
        assert not min_matching_match(x, swapped).is_identity


class TestAsSetArray:
    def test_accepts_raw_array_and_vector_set(self, rng):
        arr = rng.normal(size=(3, 4))
        assert np.array_equal(as_set_array(arr), arr)
        assert np.array_equal(as_set_array(VectorSet(arr, capacity=5)), arr)

    def test_rejects_empty_and_misshaped(self):
        with pytest.raises(DistanceError):
            as_set_array(np.empty((0, 3)))
        with pytest.raises(DistanceError):
            as_set_array(np.zeros(3))

    def test_rejects_corrupted_vector_set(self):
        """Frozen dataclasses can be bypassed; the validation must hold on
        the VectorSet branch too (it used to be skipped there)."""
        vs = VectorSet(np.zeros((1, 3)), capacity=2)
        object.__setattr__(vs, "vectors", np.empty((0, 3)))
        with pytest.raises(DistanceError):
            as_set_array(vs)
        object.__setattr__(vs, "vectors", np.zeros(5))
        with pytest.raises(DistanceError):
            as_set_array(vs)


class TestMetricAxioms:
    """Lemma 1: with Euclidean distance and norm weights the minimal
    matching distance is a metric."""

    @given(finite_sets, finite_sets)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_property(self, x, y):
        assert min_matching_distance(x, y) == pytest.approx(
            min_matching_distance(y, x), abs=1e-6
        )

    @given(finite_sets, finite_sets, finite_sets)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality_property(self, x, y, z):
        dxy = min_matching_distance(x, y)
        dxz = min_matching_distance(x, z)
        dzy = min_matching_distance(z, y)
        assert dxy <= dxz + dzy + 1e-6

    @given(finite_sets)
    @settings(max_examples=30, deadline=None)
    def test_identity_property(self, x):
        assert min_matching_distance(x, x) == pytest.approx(0.0, abs=1e-9)

    @given(finite_sets, finite_sets)
    @settings(max_examples=60, deadline=None)
    def test_non_negativity_property(self, x, y):
        assert min_matching_distance(x, y) >= 0.0

"""Tests for extended centroids and the Lemma 2 lower bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.centroid import centroid_lower_bound, extended_centroid
from repro.core.min_matching import min_matching_distance
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError

small_sets = st.integers(1, 6).flatmap(
    lambda m: arrays(
        float, (m, 4), elements=st.floats(-20, 20, allow_nan=False, width=32)
    )
)


class TestExtendedCentroid:
    def test_full_set_is_plain_mean(self, rng):
        x = rng.normal(size=(7, 5))
        assert np.allclose(extended_centroid(x, 7), x.mean(axis=0))

    def test_small_set_padded_with_omega(self):
        x = np.array([[6.0, 0.0]])
        centroid = extended_centroid(x, 3)  # omega defaults to origin
        assert np.allclose(centroid, [2.0, 0.0])

    def test_custom_omega(self):
        x = np.array([[6.0, 0.0]])
        omega = np.array([3.0, 3.0])
        centroid = extended_centroid(x, 3, omega)
        assert np.allclose(centroid, [(6 + 2 * 3) / 3, 2.0])

    def test_vector_set_input(self, rng):
        vs = VectorSet(rng.normal(size=(3, 6)), capacity=7)
        assert np.allclose(extended_centroid(vs, 7), extended_centroid(vs.vectors, 7))

    def test_capacity_below_size_rejected(self, rng):
        with pytest.raises(DistanceError):
            extended_centroid(rng.normal(size=(5, 3)), 4)

    def test_wrong_omega_dimension_rejected(self, rng):
        with pytest.raises(DistanceError):
            extended_centroid(rng.normal(size=(2, 3)), 4, omega=np.zeros(2))


class TestLemma2:
    """k * ||C(X) - C(Y)|| <= d_mm(X, Y) — the filter's correctness."""

    @given(small_sets, small_sets)
    @settings(max_examples=100, deadline=None)
    def test_lower_bound_property(self, x, y):
        k = 8
        bound = centroid_lower_bound(
            extended_centroid(x, k), extended_centroid(y, k), k
        )
        exact = min_matching_distance(x, y)
        assert bound <= exact + 1e-6

    def test_bound_is_tight_for_singletons(self, rng):
        """For two singleton sets with k = 1 the bound is exact."""
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 3))
        bound = centroid_lower_bound(
            extended_centroid(x, 1), extended_centroid(y, 1), 1
        )
        assert bound == pytest.approx(min_matching_distance(x, y))

    def test_bound_scales_with_k(self, rng):
        x = rng.normal(size=(2, 3))
        y = rng.normal(size=(2, 3))
        c_x2, c_y2 = extended_centroid(x, 2), extended_centroid(y, 2)
        assert centroid_lower_bound(c_x2, c_y2, 2) == pytest.approx(
            2 * np.linalg.norm(c_x2 - c_y2)
        )

    def test_invalid_k_rejected(self):
        with pytest.raises(DistanceError):
            centroid_lower_bound(np.zeros(3), np.zeros(3), 0)

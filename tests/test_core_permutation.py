"""Tests for the minimum Euclidean distance under permutation (Def. 3/4)."""

import numpy as np
import pytest

from repro.core.permutation import (
    permutation_distance_bruteforce,
    permutation_distance_matrix,
    permutation_distance_via_matching,
)
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError


class TestEquivalence:
    def test_bruteforce_equals_matching_reduction(self, rng):
        """The paper's Section 4.2 claim, verified exactly: matching with
        squared Euclidean distance + squared norm weight, then sqrt,
        equals the k!-enumeration of Definition 4 at the same capacity
        k - the default max(m, n), and every k above it up to seven,
        where two real covers may both be matched to dummy blocks."""
        for _ in range(40):
            m, n = rng.integers(1, 6, size=2)
            x = rng.normal(size=(m, 3))
            y = rng.normal(size=(n, 3))
            for k in (None, *range(max(m, n), 8)):
                brute = permutation_distance_bruteforce(x, y, d=3, k=k)
                fast = permutation_distance_via_matching(x, y, d=3, k=k)
                assert abs(fast - brute) <= 1e-12, (m, n, k)

    def test_matrix_entries_are_the_one_pair_calls(self, rng):
        """The packed matrix, serial and pooled, holds the very float of
        the one-pair call at the largest set's capacity."""
        sets = [rng.normal(size=(int(rng.integers(1, 8)), 6)) for _ in range(12)]
        matrix = permutation_distance_matrix(sets)
        assert np.array_equal(matrix, permutation_distance_matrix(sets, n_jobs=2))
        capacity = max(len(s) for s in sets)
        for i in range(len(sets)):
            assert matrix[i, i] == 0.0
            for j in range(i + 1, len(sets)):
                pair = permutation_distance_via_matching(sets[i], sets[j], k=capacity)
                assert matrix[i, j] == matrix[j, i] == pair

    def test_flat_vector_input(self, rng):
        """6k-dimensional one-vector inputs are split into blocks."""
        x = rng.normal(size=(3, 6))
        y = rng.normal(size=(3, 6))
        flat = permutation_distance_via_matching(x.reshape(-1), y.reshape(-1), d=6)
        rows = permutation_distance_via_matching(x, y, d=6)
        assert flat == pytest.approx(rows)

    def test_permuted_blocks_are_equal(self, rng):
        x = rng.normal(size=(4, 6))
        shuffled = x[rng.permutation(4)]
        assert permutation_distance_via_matching(x, shuffled) == pytest.approx(0.0)

    def test_reduces_to_plain_euclidean_for_k_one(self, rng):
        x = rng.normal(size=(1, 6))
        y = rng.normal(size=(1, 6))
        expected = float(np.linalg.norm(x - y))
        assert permutation_distance_via_matching(x, y) == pytest.approx(expected)

    def test_never_exceeds_identity_ordering(self, rng):
        """The optimum over permutations is at most the identity cost."""
        for _ in range(20):
            x = rng.normal(size=(5, 4))
            y = rng.normal(size=(5, 4))
            identity = float(np.linalg.norm(x - y))
            assert permutation_distance_via_matching(x, y, d=4) <= identity + 1e-9

    def test_dummy_padding_matches_explicit_zeros(self, rng):
        """A short set equals the same set explicitly padded with the
        dummy (zero) covers."""
        x = rng.normal(size=(2, 6))
        y = rng.normal(size=(4, 6))
        x_padded = np.vstack([x, np.zeros((2, 6))])
        assert permutation_distance_via_matching(x, y) == pytest.approx(
            permutation_distance_via_matching(x_padded, y)
        )


class TestValidation:
    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(DistanceError):
            permutation_distance_via_matching(
                rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
            )

    def test_flat_vector_not_divisible_rejected(self, rng):
        with pytest.raises(DistanceError):
            permutation_distance_bruteforce(rng.normal(size=7), rng.normal(size=7), d=6)

    def test_capacity_overflow_rejected(self, rng):
        for distance in (permutation_distance_bruteforce, permutation_distance_via_matching):
            with pytest.raises(DistanceError):
                distance(rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), d=3, k=3)

    def test_vector_set_inputs(self, rng):
        x = VectorSet(rng.normal(size=(3, 6)), capacity=7)
        y = VectorSet(rng.normal(size=(2, 6)), capacity=7)
        value = permutation_distance_via_matching(x, y)
        assert value == permutation_distance_via_matching(x.vectors, y.vectors)

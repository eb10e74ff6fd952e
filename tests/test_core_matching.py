"""The tests' independent Kuhn–Munkres (tests/kuhn_munkres.py) against
the program's one assignment solver, scipy's through `hungarian_batch`.

Both must return optimal permutations of equal cost; everything else in
the suite that compares a distance with "the scratch solver" leans on
this file for the oracle being right."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import hungarian_batch
from repro.exceptions import DistanceError
from tests.kuhn_munkres import assignment_cost, kuhn_munkres


def _solve(matrix: np.ndarray) -> np.ndarray:
    """One problem through the program's solver, as `min_matching_match`
    and `partial_matching_distance` call it."""
    return hungarian_batch(matrix[np.newaxis])[0]


SOLVERS = (kuhn_munkres, _solve)


class TestAgainstScipy:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 40])
    def test_random_matrices(self, n, rng):
        for _ in range(10):
            matrix = rng.normal(size=(n, n)) * rng.uniform(0.1, 100)
            assignment = kuhn_munkres(matrix)
            assert sorted(assignment) == list(range(n))  # a permutation
            assert assignment_cost(matrix, assignment) == pytest.approx(
                assignment_cost(matrix, _solve(matrix))
            )

    def test_integer_costs_with_many_ties(self, rng):
        """Integer costs sum exactly, so the optima are equal literally."""
        matrix = rng.integers(0, 3, size=(10, 10)).astype(float)
        assert assignment_cost(matrix, kuhn_munkres(matrix)) == assignment_cost(
            matrix, _solve(matrix)
        )


class TestEdgeCases:
    def test_identity_is_optimal_on_diagonal_costs(self):
        matrix = np.full((4, 4), 10.0)
        np.fill_diagonal(matrix, 0.0)
        for solve in SOLVERS:
            assert list(solve(matrix)) == [0, 1, 2, 3]

    def test_anti_diagonal(self):
        matrix = np.full((3, 3), 5.0)
        matrix[0, 2] = matrix[1, 1] = matrix[2, 0] = 0.0
        for solve in SOLVERS:
            assert list(solve(matrix)) == [2, 1, 0]

    def test_single_element(self):
        for solve in SOLVERS:
            assert list(solve(np.array([[3.5]]))) == [0]

    def test_empty_matrix(self):
        """A 0 x 0 problem (an empty batch is test_core_batch's)."""
        for solve in SOLVERS:
            assert len(solve(np.empty((0, 0)))) == 0

    def test_negative_costs_fine(self, rng):
        matrix = rng.normal(size=(7, 7)) - 50
        assert assignment_cost(matrix, kuhn_munkres(matrix)) == pytest.approx(
            assignment_cost(matrix, _solve(matrix))
        )

    def test_non_square_rejected(self):
        with pytest.raises(DistanceError):
            _solve(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        matrix = np.zeros((3, 3))
        matrix[1, 1] = np.inf
        with pytest.raises(DistanceError):
            _solve(matrix)


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_hungarian_optimality_property(matrix_rows):
    """The oracle's assignment costs what the program's solver's does."""
    matrix = np.asarray(matrix_rows)
    assignment = kuhn_munkres(matrix)
    assert sorted(assignment) == list(range(len(matrix)))
    assert assignment_cost(matrix, assignment) == pytest.approx(
        assignment_cost(matrix, _solve(matrix)), abs=1e-6
    )

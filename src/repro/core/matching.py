"""Kuhn–Munkres (Hungarian) algorithm, from scratch.

The paper computes the minimal matching distance with "the method
proposed by Kuhn and Munkres", i.e. a minimum-weight perfect matching in
a complete bipartite graph, at O(k^3) worst-case cost (Section 4.2).
:func:`hungarian` implements the classic shortest-augmenting-path
formulation with row/column potentials: each of the ``n`` phases grows
one alternating path in O(n^2), giving O(n^3) overall.

``scipy.optimize.linear_sum_assignment`` is kept available as an
optional backend (``backend="scipy"``) and serves as the correctness
oracle in the test suite; the default backend is this implementation.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DistanceError


#: Below this size the scalar implementation beats the vectorized one
#: (numpy call overhead dominates O(n^3) work for tiny n).
_SCALAR_CUTOFF = 16


class ScalarHungarianSolver:
    """Buffer-reusing scalar Kuhn–Munkres for repeated same-size problems.

    Allocating the six working lists per problem would dominate the
    O(k^3) arithmetic at the paper's k <= 9 when thousands of ``k x k``
    assignments are solved back to back.  This solver allocates them
    once and re-initializes in place on every :meth:`solve_rows` call.
    """

    def __init__(self, n: int):
        self.n = n
        self._u = [0.0] * (n + 1)
        self._v = [0.0] * (n + 1)
        self._match_row = [0] * (n + 1)
        self._way = [0] * (n + 1)
        self._min_reduced = [0.0] * (n + 1)
        self._used = [False] * (n + 1)

    def solve_rows(self, rows: list, assignment: np.ndarray) -> None:
        """Solve one problem given as a list of row lists; the column
        assigned to each row is written into *assignment* in place."""
        n = self.n
        infinity = float("inf")
        u, v = self._u, self._v
        match_row, way = self._match_row, self._way
        min_reduced, used = self._min_reduced, self._used
        for j in range(n + 1):
            u[j] = 0.0
            v[j] = 0.0
            match_row[j] = 0
        for row_index in range(1, n + 1):
            match_row[0] = row_index
            j0 = 0
            for j in range(n + 1):
                min_reduced[j] = infinity
                used[j] = False
            while True:
                used[j0] = True
                i0 = match_row[j0]
                row = rows[i0 - 1]
                u_i0 = u[i0]
                delta = infinity
                j1 = -1
                for j in range(1, n + 1):
                    if not used[j]:
                        current = row[j - 1] - u_i0 - v[j]
                        if current < min_reduced[j]:
                            min_reduced[j] = current
                            way[j] = j0
                        if min_reduced[j] < delta:
                            delta = min_reduced[j]
                            j1 = j
                for j in range(n + 1):
                    if used[j]:
                        u[match_row[j]] += delta
                        v[j] -= delta
                    else:
                        min_reduced[j] -= delta
                j0 = j1
                if match_row[j0] == 0:
                    break
            while j0:
                j1 = way[j0]
                match_row[j0] = match_row[j1]
                j0 = j1
        for j in range(1, n + 1):
            assignment[match_row[j] - 1] = j - 1


def _hungarian_scalar(cost: np.ndarray) -> np.ndarray:
    """Scalar Kuhn–Munkres for small matrices (same algorithm as
    :func:`_hungarian_own`, plain Python floats instead of numpy rows —
    roughly 10x faster for the paper's k <= 9 cover sets)."""
    n = len(cost)
    assignment = np.empty(n, dtype=int)
    ScalarHungarianSolver(n).solve_rows(cost.tolist(), assignment)
    return assignment


def _hungarian_own(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row for a square cost matrix.

    Shortest-augmenting-path Hungarian with potentials.  Indices are
    1-based internally (index 0 is the virtual start column), following
    the classic formulation, and translated on return.
    """
    n = cost.shape[0]
    infinity = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    # match_row[j] = row currently assigned to column j (0 = unassigned).
    match_row = np.zeros(n + 1, dtype=int)
    way = np.zeros(n + 1, dtype=int)

    for row in range(1, n + 1):
        match_row[0] = row
        j0 = 0
        min_reduced = np.full(n + 1, infinity)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            # Vectorized relaxation of all unused columns from row i0.
            free = ~used
            free[0] = False
            columns = np.nonzero(free)[0]
            reduced = cost[i0 - 1, columns - 1] - u[i0] - v[columns]
            improves = reduced < min_reduced[columns]
            improved_cols = columns[improves]
            min_reduced[improved_cols] = reduced[improves]
            way[improved_cols] = j0
            # Pick the unused column with the smallest reduced cost.
            j1 = columns[np.argmin(min_reduced[columns])]
            delta = min_reduced[j1]
            # Update potentials; unreached columns keep their slack.
            u[match_row[used]] += delta
            v[used] -= delta
            min_reduced[~used] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        # Unroll the augmenting path.
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1

    assignment = np.empty(n, dtype=int)
    assignment[match_row[1:] - 1] = np.arange(n)
    return assignment


def hungarian(cost: np.ndarray, backend: str = "own") -> np.ndarray:
    """Solve the square assignment problem.

    Parameters
    ----------
    cost:
        ``(n, n)`` cost matrix with finite entries.
    backend:
        ``"own"`` (default) for the from-scratch Kuhn–Munkres
        implementation, ``"scipy"`` for
        :func:`scipy.optimize.linear_sum_assignment`.

    Returns
    -------
    ``(n,)`` integer array: ``result[i]`` is the column assigned to
    row ``i`` in a minimum-cost perfect matching.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DistanceError(f"cost matrix must be square, got shape {matrix.shape}")
    if not matrix.size:
        return np.empty(0, dtype=int)
    if not np.all(np.isfinite(matrix)):
        raise DistanceError("cost matrix must be finite")
    if backend == "own":
        if matrix.shape[0] <= _SCALAR_CUTOFF:
            return _hungarian_scalar(matrix)
        return _hungarian_own(matrix)
    if backend == "scipy":
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(matrix)
        assignment = np.empty(matrix.shape[0], dtype=int)
        assignment[rows] = cols
        return assignment
    raise DistanceError(f"unknown backend: {backend!r}")


def assignment_cost(cost: np.ndarray, assignment: np.ndarray) -> float:
    """Total cost of an assignment returned by :func:`hungarian`.

    The matched costs are summed in ascending order, so two optimal
    assignments that match the same multiset of costs (the rule, not the
    exception, once dummy rows or columns tie) give the same float.
    """
    matrix = np.asarray(cost, dtype=float)
    matched = matrix[np.arange(len(assignment)), assignment]
    matched.sort()
    return float(matched.sum())

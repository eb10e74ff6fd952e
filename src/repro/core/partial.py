"""Partial similarity on vector sets (Section 4.1's outlook).

The paper names a key advantage of the vector set representation: one
can "distinguish between the distance measure used on the feature
vectors of a set and the way we combine the resulting distances", e.g.
"defining partial similarity, where it is only necessary to compare the
closest i < k vectors of a set".

:func:`partial_matching_distance` implements exactly that: the cost of
the best matching restricted to its ``i`` cheapest pairs.  A part that
*contains* a sub-structure of another part scores low even when the
remaining covers differ completely — useful for retrieving assemblies
that share a component.

Note: partial similarity is **not** a metric (the identity of
indiscernibles fails — two objects sharing ``i`` covers have distance 0)
— so it must be used with a sequential scan, never with the Lemma 2
centroid bound.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import hungarian_batch
from repro.core.min_matching import euclidean_cross
from repro.exceptions import DistanceError


def partial_matching_distance(
    x: np.ndarray,
    y: np.ndarray,
    i: int,
) -> float:
    """Sum of the ``i`` cheapest pairs of the optimal partial matching.

    Computes a minimum-cost matching of exactly ``i`` pairs between the
    sets (via an assignment problem with free slots for the unmatched
    remainder of each side) and returns its total cost.

    Parameters
    ----------
    x, y:
        ``(m, d)`` and ``(n, d)`` vector sets.
    i:
        Number of element pairs to match; ``1 <= i <= min(m, n)``.
    """
    arr_x = np.asarray(x, dtype=float)
    arr_y = np.asarray(y, dtype=float)
    if arr_x.ndim != 2 or arr_y.ndim != 2 or not len(arr_x) or not len(arr_y):
        raise DistanceError("partial matching needs non-empty (m, d) arrays")
    if arr_x.shape[1] != arr_y.shape[1]:
        raise DistanceError("dimension mismatch between sets")
    m, n = len(arr_x), len(arr_y)
    if not 1 <= i <= min(m, n):
        raise DistanceError(f"need 1 <= i <= min(m, n) = {min(m, n)}, got {i}")
    cross = euclidean_cross(arr_x, arr_y)

    # Optimal i-cardinality matching == assignment on an augmented
    # square matrix: each x row gets (n - ?) ... construction: size
    # (m + n - i): rows = x's plus (n - i) dummy rows that absorb the
    # unmatched y's; columns = y's plus (m - i) dummy columns absorbing
    # unmatched x's.  Dummy/dummy cells are infeasible (they would steal
    # match slots), dummy/real cells are free.
    size = m + n - i
    big = float(cross.sum()) + 1.0
    matrix = np.full((size, size), big)
    matrix[:m, :n] = cross
    if m > i:
        matrix[:m, n:] = 0.0  # x unmatched
    if n > i:
        matrix[m:, :n] = 0.0  # y unmatched
    assignment = hungarian_batch(matrix[np.newaxis])[0]
    total = float(matrix[np.arange(size), assignment].sum())
    if total >= big:
        raise DistanceError("partial matching reduction became infeasible")
    return total

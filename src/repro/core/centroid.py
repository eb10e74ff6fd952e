"""Extended centroids and the Lemma 2 lower bound (the filter step).

For a vector set ``X`` with ``|X| <= k`` and a reference point ``omega``
outside the data space, the *extended centroid* (Definition 8)

    C(X) = ( sum_i x_i + (k - |X|) * omega ) / k

is a single d-dimensional point.  Lemma 2 proves

    k * || C(X) - C(Y) ||  <=  d_mm(X, Y)

when the minimal matching distance uses the Euclidean element distance
and the weight ``w(x) = || x - omega ||`` (Definition 7).  Centroids can
therefore live in any vector index (the paper uses an X-tree) and prune
candidates: for an ε-range query only sets whose centroid is within
``ε / k`` of the query centroid must be refined.
"""

from __future__ import annotations

import numpy as np

from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError


def extended_centroid(
    vectors: np.ndarray | VectorSet,
    k: int,
    omega: np.ndarray | None = None,
) -> np.ndarray:
    """Extended centroid of a vector set (Definition 8)."""
    if isinstance(vectors, VectorSet):
        arr = np.asarray(vectors.vectors)
        if k < vectors.size:
            raise DistanceError(f"capacity k={k} below set size {vectors.size}")
    else:
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2 or not len(arr):
            raise DistanceError(f"expected (m, d) vectors, got shape {arr.shape}")
        if k < len(arr):
            raise DistanceError(f"capacity k={k} below set size {len(arr)}")
    if omega is None:
        omega = np.zeros(arr.shape[1])
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (arr.shape[1],):
        raise DistanceError("omega has wrong dimension")
    return (arr.sum(axis=0) + (k - len(arr)) * omega) / float(k)


def centroid_lower_bound(
    centroid_x: np.ndarray, centroid_y: np.ndarray, k: int
) -> float:
    """The Lemma 2 lower bound ``k * || C(X) - C(Y) ||_2`` on the minimal
    matching distance between the underlying sets."""
    if k < 1:
        raise DistanceError("k must be >= 1")
    cx = np.asarray(centroid_x, dtype=float)
    cy = np.asarray(centroid_y, dtype=float)
    return float(k * np.linalg.norm(cx - cy))

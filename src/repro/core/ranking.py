"""Incremental similarity ranking over vector sets.

The paper's future work names "fast and flexible algorithms for
processing similarity queries on vector set representations"; the
classic flexible primitive is the *incremental ranking*: a lazy stream
of objects in ascending exact distance, refined on demand.  Built on the
Lemma 2 bound it is optimal in the same sense as the multi-step k-nn —
an object's exact distance is computed only when its lower bound has
risen to the front of the queue — and it subsumes both k-nn (take k) and
ε-range (take while distance <= ε) without fixing k or ε in advance.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from repro.core.centroid import extended_centroid
from repro.core.queries import FilterRefineEngine


def incremental_ranking(
    engine: FilterRefineEngine, query: np.ndarray
) -> Iterator[tuple[int, float]]:
    """Yield ``(object_id, exact_distance)`` in ascending ``(distance,
    object id)`` order — the order of :meth:`FilterRefineEngine.knn_query`.

    Works on any :class:`FilterRefineEngine`; the number of exact
    distance computations after ``n`` results is exactly the number of
    candidates whose lower bound is at most the ``n``-th exact distance.
    The engine must not be mutated while the stream is being consumed.
    """
    query_arr = np.asarray(
        query.vectors if hasattr(query, "vectors") else query, dtype=float
    )
    center = extended_centroid(query_arr, engine.capacity, engine.omega)
    bounds = engine.capacity * np.linalg.norm(engine.centroids - center, axis=1)

    # Heap entries: (key, oid, is_exact).  A lower bound that ties an
    # exact distance is refined first when its oid is smaller, so equal
    # distances come out by ascending oid.
    heap: list[tuple[float, int, bool]] = [
        (bound, oid, False) for bound, oid in zip(bounds.tolist(), engine.oids.tolist())
    ]
    heapq.heapify(heap)
    while heap:
        key, oid, is_exact = heapq.heappop(heap)
        if is_exact:
            yield oid, key
        else:
            exact = float(engine.exact_distances(query_arr, [oid])[0])
            heapq.heappush(heap, (exact, oid, True))

"""Filter-and-refine query processing on vector set data (Section 4.3).

The engine stores one extended centroid per database object.  Queries
first rank/filter on the centroids — whose Euclidean distance, scaled by
``k``, lower-bounds the minimal matching distance (Lemma 2) — and only
refine surviving candidates with the exact O(k^3) matching distance:

* ε-range queries prune every object whose centroid is farther than
  ``ε / k`` from the query centroid (the paper's filter step),
* k-nn queries use the optimal multi-step algorithm of Seidl & Kriegel:
  candidates are consumed in ascending lower-bound order and the search
  stops as soon as the next lower bound exceeds the current k-th exact
  distance, which provably refines the minimum number of candidates.

Refinement goes through the batched kernel of :mod:`repro.core.batch`
whenever the engine uses the default minimal matching distance: the
database is packed once into an omega-padded ``(n, k, d)`` tensor at
construction, and candidates are refined in blocks of *block_size* so
the cost-tensor assembly and the Hungarian solves amortize across the
block.  k-nn queries stay *optimal multi-step up to one block*: the
stop condition is evaluated against the radius as of the last completed
block, which is conservative (it can only stop where the sequential
algorithm would have stopped), and any candidates refined past the
sequential stopping point are counted in
:attr:`QueryStats.extra_refinements` — at most ``block_size - 1`` of
them, and exactly zero for ``block_size=1``.  Results are provably
identical to the strictly sequential order: an overshoot candidate's
exact distance is bounded below by its lower bound, which already
exceeded the pruning radius, so it can never displace a heap entry.

With a custom ``exact_distance`` the engine falls back to per-pair
refinement (the batch formulation is exact only for the Euclidean /
omega-norm-weight configuration of the paper).

The centroid ranking itself can be delegated to a spatial index (the
paper uses an X-tree, see :mod:`repro.index.xtree`) through the
``centroid_ranker`` hook: a *chunk source*, called with the query's
extended centroid and yielding ``(oids, dists)`` array pairs in
ascending centroid distance (``ranking_chunks`` of the array-native
index cores in :mod:`repro.index.arraycore` is one).  The default is an
in-memory scan emitting a single chunk, which keeps this module free of
index dependencies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.batch import DEFAULT_CHUNK_SIZE, PackedSets
from repro.core.centroid import extended_centroid
from repro.core.vector_set import VectorSet
from repro.exceptions import QueryError
from repro.obs import registry, span
from repro.obs import querylog

#: A ranker is a chunk source: called with the query centroid, it yields
#: (object ids, centroid distances) array pairs in ascending centroid
#: distance; spatial indexes plug in here.
CentroidRanker = Callable[[np.ndarray], Iterator[tuple[np.ndarray, np.ndarray]]]
ExactDistance = Callable[[np.ndarray, np.ndarray], float]

#: Candidates refined per batched kernel call in blocked k-nn; see
#: FilterRefineEngine(block_size=...).
DEFAULT_BLOCK_SIZE = 16


@dataclass
class QueryStats:
    """Work accounting for one similarity query.

    Attributes
    ----------
    candidates_ranked:
        Candidates produced by the filter step (centroid comparisons).
    exact_computations:
        Minimal-matching distances actually evaluated (the expensive
        O(k^3) refinements).
    pruned:
        Objects never refined thanks to the lower bound.
    extra_refinements:
        Refinements performed at or past the point where the strictly
        sequential optimal multi-step algorithm would have stopped —
        the price of blocked refinement (bounded by ``block_size - 1``).
    """

    candidates_ranked: int = 0
    exact_computations: int = 0
    pruned: int = 0
    extra_refinements: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat numeric mapping (the shared stats protocol with
        :class:`repro.index.pages.IOCost`): feeds the metrics registry
        via ``registry().count_many(prefix, stats.as_dict())``."""
        return {
            "candidates_ranked": self.candidates_ranked,
            "exact_computations": self.exact_computations,
            "pruned": self.pruned,
            "extra_refinements": self.extra_refinements,
        }

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate another query's accounting in place."""
        self.candidates_ranked += other.candidates_ranked
        self.exact_computations += other.exact_computations
        self.pruned += other.pruned
        self.extra_refinements += other.extra_refinements
        return self

    def __str__(self) -> str:
        total = self.exact_computations + self.pruned
        return (
            f"ranked {self.candidates_ranked}, refined "
            f"{self.exact_computations}/{total} ({self.pruned} pruned, "
            f"{self.extra_refinements} overshoot)"
        )


@dataclass(frozen=True)
class QueryMatch:
    """One result of a similarity query."""

    object_id: int
    distance: float


class FilterRefineEngine:
    """Answer ε-range and k-nn queries over a collection of vector sets.

    Parameters
    ----------
    sets:
        The database: a sequence of ``(m_i, d)`` arrays or
        :class:`VectorSet` objects.
    capacity:
        The cardinality bound ``k`` shared by all sets.
    omega:
        Reference point of the extended centroids (default: origin).
    exact_distance:
        Exact set distance to refine with; defaults to the minimal
        matching distance with Euclidean element distance and the weight
        function ``w(x) = ||x - omega||`` — i.e. the *same* omega as the
        centroids, which is exactly the precondition of Lemma 2.  If you
        substitute another distance you must ensure the centroid bound
        still lower-bounds it; refinement then runs per pair instead of
        through the batched kernel.
    block_size:
        Candidates refined per batched kernel call in k-nn queries.
        Larger blocks amortize better but may refine up to
        ``block_size - 1`` candidates beyond the sequential optimum.
    oids:
        External object ids, one per set (default: positions
        ``0..n-1``).  Rankers yield these ids and results carry them, so
        a mutable database with sparse ids after deletions can plug its
        spatial index in as *centroid_ranker* without renumbering.  Ties
        in k-nn results resolve canonically by ascending oid, matching
        the index layer's convention.
    """

    def __init__(
        self,
        sets: Sequence[np.ndarray | VectorSet],
        capacity: int,
        omega: np.ndarray | None = None,
        exact_distance: ExactDistance | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        oids: Sequence[int] | None = None,
    ):
        if capacity < 1:
            raise QueryError("capacity must be >= 1")
        if not len(sets):
            raise QueryError("database must not be empty")
        if block_size < 1:
            raise QueryError("block_size must be >= 1")
        self.capacity = capacity
        self.block_size = block_size
        self._sets = [
            np.asarray(s.vectors if isinstance(s, VectorSet) else s, dtype=float)
            for s in sets
        ]
        self.dimension = self._sets[0].shape[1]
        for i, arr in enumerate(self._sets):
            if arr.ndim != 2 or arr.shape[1] != self.dimension:
                raise QueryError(f"set {i} has incompatible shape {arr.shape}")
            if len(arr) > capacity:
                raise QueryError(f"set {i} exceeds capacity {capacity}")
        if oids is None:
            self.oids = list(range(len(self._sets)))
        else:
            self.oids = [int(oid) for oid in oids]
            if len(self.oids) != len(self._sets):
                raise QueryError(
                    f"{len(self.oids)} oids for {len(self._sets)} sets"
                )
            if len(set(self.oids)) != len(self.oids):
                raise QueryError("object ids must be unique")
        self._oid_arr = np.asarray(self.oids, dtype=np.int64)
        # Ascending view of the ids for the vectorized oid -> position
        # lookup (identity order for the database's sorted ids).
        self._oid_order = np.argsort(self._oid_arr, kind="stable")
        self._oid_sorted = self._oid_arr[self._oid_order]
        self.omega = (
            np.zeros(self.dimension) if omega is None else np.asarray(omega, dtype=float)
        )
        self.centroids = np.vstack(
            [extended_centroid(arr, capacity, self.omega) for arr in self._sets]
        )
        # The omega-padded batch formulation realizes exactly the default
        # distance (Euclidean elements, w(x) = ||x - omega||); any custom
        # exact_distance falls back to the per-pair loop.
        self._batch_refine = exact_distance is None
        if self._batch_refine:
            from repro.core.centroid import norm_weight
            from repro.core.min_matching import min_matching_distance

            self._packed = PackedSets.pack(
                self._sets, capacity=capacity, omega=self.omega
            )
            weight = norm_weight(None if np.allclose(self.omega, 0.0) else self.omega)
            exact_distance = lambda a, b: min_matching_distance(  # noqa: E731
                a, b, weight=weight
            )
        else:
            self._packed = None
        self._exact = exact_distance

    # -- filter step -------------------------------------------------------

    def _scan_chunks(self, query_centroid: np.ndarray):
        """Default centroid ranker: full scan, one ascending chunk."""
        dists = np.linalg.norm(self.centroids - query_centroid, axis=1)
        order = np.argsort(dists, kind="stable")
        yield self._oid_arr[order], dists[order]

    def _positions_for(self, oids: np.ndarray) -> np.ndarray:
        """Vectorized oid → internal-position lookup."""
        arr = np.asarray(oids)
        rank = np.searchsorted(self._oid_sorted, arr)
        bad = self._oid_sorted.take(rank, mode="clip") != arr
        if bad.any():
            oid = int(arr[int(np.argmax(bad))])
            raise QueryError(f"ranker yielded unknown object id {oid}")
        return self._oid_order[rank]

    # -- refinement --------------------------------------------------------

    def _query_array(self, query: np.ndarray | VectorSet) -> np.ndarray:
        arr = np.asarray(
            query.vectors if isinstance(query, VectorSet) else query, dtype=float
        )
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise QueryError(f"query set has incompatible shape {arr.shape}")
        return arr

    def _prepare_query(self, query_arr: np.ndarray):
        """Pad the query once per query (reused across all its blocks)."""
        if self._batch_refine:
            return self._packed.pad_query(query_arr)
        return None

    def _refine_many(
        self, prepared, query_arr: np.ndarray, ids: Sequence[int]
    ) -> np.ndarray:
        """Exact distances from the query to the given database objects."""
        if self._batch_refine:
            from repro.core.batch import match_many

            return match_many(
                prepared, self._packed, indices=np.asarray(ids, dtype=np.intp)
            )
        return np.array([self._exact(query_arr, self._sets[oid]) for oid in ids])

    def _refine_block(
        self, prepared, query_arr: np.ndarray, ids: Sequence[int]
    ) -> tuple[np.ndarray, float]:
        """One traced kernel call: ``(exact distances, seconds)``."""
        registry().histogram("query.block_candidates").observe(len(ids))
        with span("query.refine", candidates=len(ids)) as rsp:
            exacts = self._refine_many(prepared, query_arr, ids)
        return exacts, rsp.seconds

    def _refine_chunked(
        self, query_arr: np.ndarray, positions: Sequence[int], *, block_spans: bool
    ) -> tuple[np.ndarray, float, int]:
        """Refine *every* listed position, ``DEFAULT_CHUNK_SIZE`` per
        kernel call: ``(exact distances, refine seconds, blocks)``.

        *block_spans* traces each kernel call the way the blocked k-nn
        does (a filtered query separates its refine phase); an
        unfiltered pass is all refinement and is timed as a whole by
        its caller, so it reports 0.0 seconds here.
        """
        prepared = self._prepare_query(query_arr)
        parts: list[np.ndarray] = []
        seconds = 0.0
        for start in range(0, len(positions), DEFAULT_CHUNK_SIZE):
            chunk = positions[start : start + DEFAULT_CHUNK_SIZE]
            if block_spans:
                exacts, block_seconds = self._refine_block(prepared, query_arr, chunk)
                seconds += block_seconds
            else:
                exacts = self._refine_many(prepared, query_arr, chunk)
            parts.append(np.atleast_1d(exacts))
        exacts = np.concatenate(parts) if parts else np.empty(0)
        return exacts, seconds, len(parts)

    # -- telemetry ---------------------------------------------------------

    def _record_query(
        self,
        kind: str,
        stats: QueryStats,
        *,
        seconds: float = 0.0,
        refine_seconds: float = 0.0,
        blocks: int = 0,
        **extra,
    ) -> None:
        """Per-query telemetry: registry counters + one wide event.

        Delegates to :func:`repro.obs.querylog.record_query`, which
        always accounts the counters and — subject to sampling / the
        slow-query threshold — emits one ``query`` record carrying
        exactly the fields of ``stats.as_dict()`` (so trace consumers
        see the same numbers the caller gets back) plus phase timings
        and whatever context the database layer contributed.
        """
        querylog.record_query(
            kind,
            stats.as_dict(),
            len(self._sets),
            seconds=seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            **extra,
        )

    # -- queries -----------------------------------------------------------

    def range_query(
        self,
        query: np.ndarray | VectorSet,
        epsilon: float,
        centroid_ranker: CentroidRanker | None = None,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """All objects within minimal matching distance *epsilon*.

        Only candidates whose centroid lies within ``epsilon / k`` of the
        query centroid are refined (Lemma 2); the surviving prefix of the
        ranking is refined through the batched kernel in one pass.
        """
        if not epsilon >= 0:  # also rejects NaN
            raise QueryError("epsilon must be non-negative")
        stats = QueryStats()
        with span("query.range", epsilon=epsilon) as sp:
            query_arr = self._query_array(query)
            center = extended_centroid(query_arr, self.capacity, self.omega)
            cutoff = epsilon / self.capacity
            survivors: list[np.ndarray] = []  # internal positions
            for chunk_oids, chunk_dists in (centroid_ranker or self._scan_chunks)(
                center
            ):
                over = np.asarray(chunk_dists, dtype=float) > cutoff
                if over.any():
                    # Ranking is ascending: the first candidate past the
                    # cutoff is counted (it is pulled, then rejected) and
                    # everything after it is pruned.
                    first = int(np.argmax(over))
                    stats.candidates_ranked += first + 1
                    survivors.append(self._positions_for(chunk_oids[:first]))
                    break
                stats.candidates_ranked += len(over)
                survivors.append(self._positions_for(chunk_oids))
            positions = (
                np.concatenate(survivors) if survivors else np.empty(0, dtype=np.intp)
            )
            exacts, refine_seconds, blocks = self._refine_chunked(
                query_arr, positions, block_spans=True
            )
            stats.exact_computations = len(positions)
            stats.pruned = len(self._sets) - len(positions)
            within = exacts <= epsilon
            results = self._nearest_of(positions[within], exacts[within])
            sp.set(results=len(results))
        self._record_query(
            "range",
            stats,
            seconds=sp.seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            epsilon=epsilon,
            results=len(results),
        )
        return results, stats

    def knn_query(
        self,
        query: np.ndarray | VectorSet,
        n_neighbors: int,
        centroid_ranker: CentroidRanker | None = None,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """The *n_neighbors* nearest objects by minimal matching distance.

        Optimal multi-step k-nn (Seidl & Kriegel 1998), blocked:
        candidates are consumed in ascending lower-bound order and
        refined *block_size* at a time through the batched kernel.  The
        stop condition uses the pruning radius as of the last completed
        block — conservative, so the result set is identical to the
        strictly sequential algorithm — and the walk over each refined
        block replays the sequential stop decision to count
        :attr:`QueryStats.extra_refinements` exactly.

        The search stops only when the next lower bound *strictly*
        exceeds the current k-th exact distance: candidates whose bound
        ties the radius are still refined, so ties at the k-th distance
        resolve canonically by ascending object id (a candidate with a
        strictly greater bound can never tie, since its exact distance
        is at least the bound).  Results are therefore independent of
        the candidate order the ranker produces.
        """
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        stats = QueryStats()
        refine_seconds = 0.0
        blocks = 0
        with span("query.knn", k=n_neighbors) as sp:
            query_arr = self._query_array(query)
            center = extended_centroid(query_arr, self.capacity, self.omega)
            prepared = self._prepare_query(query_arr)
            # Max-heap over (distance, oid) via negation: heap[0] is the
            # current k-th candidate, the first to be displaced.
            heap: list[tuple[float, int]] = []
            pending_oids: list[int] = []
            pending_bounds: list[float] = []  # their lower bounds
            stop = False

            def flush() -> None:
                """Refine the pending block and replay the sequential walk."""
                nonlocal stop, refine_seconds, blocks
                if not pending_oids:
                    return
                stats.exact_computations += len(pending_oids)
                exacts, seconds = self._refine_block(
                    prepared, query_arr, self._positions_for(pending_oids)
                )
                refine_seconds += seconds
                blocks += 1
                for oid, lower_bound, exact in zip(
                    pending_oids, pending_bounds, exacts
                ):
                    # The sequential algorithm would have stopped here; this
                    # and every later refinement of the block is overshoot.
                    # (Provably harmless: exact >= lower_bound > radius, so
                    # none of them can displace a heap entry.)
                    if stop or (
                        len(heap) == n_neighbors and lower_bound > -heap[0][0]
                    ):
                        stop = True
                        stats.extra_refinements += 1
                        continue
                    exact = float(exact)
                    if len(heap) < n_neighbors:
                        heapq.heappush(heap, (-exact, -oid))
                    elif (exact, oid) < (-heap[0][0], -heap[0][1]):
                        heapq.heapreplace(heap, (-exact, -oid))
                pending_oids.clear()
                pending_bounds.clear()

            # Between flushes the heap (and so the pruning radius) is
            # frozen, and a flush can only occur once the pending block
            # fills, so candidates are examined in windows of at most
            # ``block_size - len(pending_oids)`` against a constant radius.
            # The radius is stale while a block is pending (it can only
            # have shrunk since), so a bound exceeding it means the
            # sequential algorithm stopped at or before that candidate.
            done = False
            for chunk_oids, chunk_dists in (centroid_ranker or self._scan_chunks)(
                center
            ):
                bounds = self.capacity * np.asarray(chunk_dists, dtype=float)
                i = 0
                while i < len(bounds) and not done:
                    window = bounds[i : i + self.block_size - len(pending_oids)]
                    take = len(window)
                    if len(heap) == n_neighbors:
                        over = window > -heap[0][0]
                        if over.any():
                            # The stopping candidate is pulled (counted)
                            # but never refined.
                            take = int(np.argmax(over))
                            stats.candidates_ranked += 1
                            done = True
                    stats.candidates_ranked += take
                    pending_oids.extend(chunk_oids[i : i + take].tolist())
                    pending_bounds.extend(window[:take].tolist())
                    i += take
                    if len(pending_oids) >= self.block_size:
                        flush()
                        done = stop
                if done:
                    break
            flush()
            stats.pruned = len(self._sets) - stats.exact_computations
            results = [QueryMatch(-neg_oid, -neg_dist) for neg_dist, neg_oid in heap]
            results.sort(key=lambda match: (match.distance, match.object_id))
            sp.set(results=len(results))
        self._record_query(
            "knn",
            stats,
            seconds=sp.seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            k=n_neighbors,
        )
        return results, stats

    def _nearest_of(
        self, positions: np.ndarray, exacts: np.ndarray, limit: int | None = None
    ) -> list[QueryMatch]:
        """Refined positions as matches in the canonical ``(distance,
        oid)`` order, cut to the *limit* closest."""
        ext = self._oid_arr[positions]
        order = np.lexsort((ext, exacts))[:limit]
        return [QueryMatch(int(ext[idx]), float(exacts[idx])) for idx in order]

    def knn_sequential(
        self, query: np.ndarray | VectorSet, n_neighbors: int
    ) -> tuple[list[QueryMatch], QueryStats]:
        """Baseline without the filter: exact distance to every object
        (the "Vect. Set seq. scan" row of Table 2), evaluated through
        the batched kernel in database order."""
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        n = len(self._sets)
        stats = QueryStats(candidates_ranked=n, exact_computations=n)
        with span("query.scan", k=n_neighbors) as sp:
            positions = np.arange(n, dtype=np.intp)
            exacts, _, blocks = self._refine_chunked(
                self._query_array(query), positions, block_spans=False
            )
            results = self._nearest_of(positions, exacts, n_neighbors)
        # No filter step: the whole scan is refinement.
        self._record_query(
            "scan",
            stats,
            seconds=sp.seconds,
            refine_seconds=sp.seconds,
            blocks=blocks,
            k=n_neighbors,
        )
        return results, stats

    def knn_refine_subset(
        self,
        query: np.ndarray | VectorSet,
        n_neighbors: int,
        oids: Sequence[int] | np.ndarray,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """Exact k-nn restricted to an explicit candidate subset.

        Refines *every* listed object through the batched kernel (no
        lower-bound pruning — the caller already did its own filtering,
        e.g. the Hamming shortlist of :mod:`repro.approx`) and returns
        the *n_neighbors* closest in the canonical ``(distance, oid)``
        order.  Unknown oids raise :class:`QueryError`; oids must be
        unique (the result carries one entry per listed object).
        """
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        query_arr = self._query_array(query)
        positions = self._positions_for(np.asarray(oids, dtype=np.int64))
        stats = QueryStats(
            candidates_ranked=len(positions),
            exact_computations=len(positions),
            pruned=len(self._sets) - len(positions),
        )
        if not len(positions):
            self._record_query("knn_subset", stats, k=n_neighbors)
            return [], stats
        with span("query.knn_subset", k=n_neighbors, candidates=len(positions)) as sp:
            exacts, _, blocks = self._refine_chunked(
                query_arr, positions, block_spans=False
            )
            results = self._nearest_of(positions, exacts, n_neighbors)
        # The caller already filtered; the whole subset pass is refinement.
        self._record_query(
            "knn_subset",
            stats,
            seconds=sp.seconds,
            refine_seconds=sp.seconds,
            blocks=blocks,
            k=n_neighbors,
        )
        return results, stats

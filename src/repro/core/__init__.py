"""Core contribution: vector sets, minimal matching distance, filter step.

This subpackage implements Section 4 of the paper:

* :mod:`repro.core.vector_set` — the vector set representation,
* :mod:`repro.core.min_matching` — the minimal matching distance
  (Definition 6) of one pair, a one-pair call of the batched kernel,
* :mod:`repro.core.permutation` — the minimum Euclidean distance under
  permutation (Definitions 3/4), both brute force and via matching on
  the same kernel,
* :mod:`repro.core.centroid` — extended centroids and the Lemma 2 lower
  bound used as a filter step,
* :mod:`repro.core.queries` — filter-and-refine ε-range and optimal
  multi-step k-nn query processing,
* :mod:`repro.core.batch` — batched minimal-matching kernels over
  omega-padded packed tensors, the one assignment solver (scipy's
  compiled O(k^3) shortest-augmenting-path solver, reached through
  :func:`~repro.core.batch.hungarian_batch`), and a parallel
  pairwise-distance engine.
"""

from repro.core.batch import (
    PackedSets,
    hungarian_batch,
    match_many,
    match_pairs,
    pairwise_matrix,
)
from repro.core.centroid import centroid_lower_bound, extended_centroid
from repro.core.min_matching import (
    MatchResult,
    min_matching_distance,
    min_matching_match,
)
from repro.core.partial import partial_matching_distance
from repro.core.permutation import (
    permutation_distance_bruteforce,
    permutation_distance_via_matching,
)
from repro.core.queries import FilterRefineEngine, QueryStats
from repro.core.vector_set import VectorSet

__all__ = [
    "VectorSet",
    "MatchResult",
    "min_matching_distance",
    "min_matching_match",
    "permutation_distance_bruteforce",
    "permutation_distance_via_matching",
    "partial_matching_distance",
    "extended_centroid",
    "centroid_lower_bound",
    "FilterRefineEngine",
    "QueryStats",
    "PackedSets",
    "hungarian_batch",
    "match_many",
    "match_pairs",
    "pairwise_matrix",
]

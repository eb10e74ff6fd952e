"""Objective cluster-quality metrics against ground-truth labels.

The paper judges its reachability plots visually ("the objects in
clusters A and C are intuitively similar...").  Our synthetic datasets
come with ground-truth part classes, so every visual claim can be scored
numerically:

* :func:`adjusted_rand_index` — chance-corrected pair-counting agreement,
* :func:`best_cut_quality` — sweep the eps cuts of a reachability plot
  and report the best achievable quality (how much structure the model
  *can* reveal),
* :func:`structure_contrast` — a label-free score of how pronounced the
  valleys of a reachability plot are.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clustering.optics import ClusterOrdering
from repro.clustering.reachability import cut_levels, extract_clusters
from repro.exceptions import ReproError


def _clusters_to_assignment(
    clusters: Sequence[Sequence[int]], noise: Sequence[int], n: int
) -> np.ndarray:
    """Map clusters + noise to an assignment array; noise objects each
    get a unique singleton label so they never count as agreeing pairs."""
    assignment = np.full(n, -1, dtype=int)
    for label, members in enumerate(clusters):
        for obj in members:
            assignment[obj] = label
    next_label = len(clusters)
    for obj in noise:
        assignment[obj] = next_label
        next_label += 1
    if np.any(assignment < 0):
        raise ReproError("clusters and noise do not cover all objects")
    return assignment


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    labels_a, inverse_a = np.unique(a, return_inverse=True)
    labels_b, inverse_b = np.unique(b, return_inverse=True)
    table = np.zeros((len(labels_a), len(labels_b)), dtype=np.int64)
    np.add.at(table, (inverse_a, inverse_b), 1)
    return table


def adjusted_rand_index(labels_true: Sequence[int], labels_pred: Sequence[int]) -> float:
    """Adjusted Rand index between two assignments (1 = identical,
    ~0 = random agreement)."""
    a = np.asarray(labels_true)
    b = np.asarray(labels_pred)
    if a.shape != b.shape:
        raise ReproError("label arrays must have equal length")
    table = _contingency(a, b)

    def comb2(x: np.ndarray) -> np.ndarray:
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(np.array(len(a)))
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0 if sum_cells == expected else 0.0
    return float((sum_cells - expected) / (max_index - expected))


def best_cut_quality(
    ordering: ClusterOrdering,
    labels: Sequence[int],
    n_levels: int = 25,
    min_clusters: int = 2,
) -> tuple[float, float]:
    """Best adjusted Rand index over eps cuts of the reachability plot.

    Returns ``(best_ari, best_eps)``.  This turns the paper's "which
    model finds the intuitive classes" question into a number: a model
    whose plot has no usable valleys cannot reach a high ARI at any cut.
    """
    labels = np.asarray(labels)
    n = len(labels)
    best_ari, best_eps = -1.0, float("nan")
    for eps in cut_levels(ordering, n_levels):
        clusters, noise = extract_clusters(ordering, float(eps))
        if len(clusters) < min_clusters:
            continue
        assignment = _clusters_to_assignment(clusters, noise, n)
        ari = adjusted_rand_index(labels, assignment)
        if ari > best_ari:
            best_ari, best_eps = ari, float(eps)
    return best_ari, best_eps


def structure_contrast(ordering: ClusterOrdering) -> float:
    """Label-free plot-structure score in [0, 1].

    The contrast between the typical valley floor (25th percentile of
    finite reachability) and the typical ridge (90th percentile): flat,
    structureless plots — like the paper observes for the volume model —
    score near 0, deeply valleyed plots score near 1.
    """
    finite = ordering.reachability[np.isfinite(ordering.reachability)]
    if len(finite) < 2:
        return 0.0
    low = float(np.quantile(finite, 0.25))
    high = float(np.quantile(finite, 0.90))
    if high <= 0:
        return 0.0
    return max(0.0, (high - low) / high)

"""Ablation: clustering quality as a function of the cover count.

The paper concludes "we need about 7 covers to model similarity most
accurately" from visual plot comparisons of k = 3 vs k = 7.  This sweep
measures best-cut ARI for k in {1, 2, 3, 5, 7, 9} on the Car dataset,
together with the mean extracted set size and the mean relative
approximation error — showing *why* quality saturates: the greedy
covers stop reducing the symmetric volume difference.
"""

import numpy as np

from repro.clustering.optics import distance_rows_from_matrix, optics
from repro.clustering.quality import best_cut_quality
from repro.evaluation.experiments import (
    distance_matrix_for,
    extract_features,
    prepare_dataset,
)
from repro.evaluation.report import format_table
from repro.features.cover_sequence import extract_cover_sequence
from repro.features.vector_set_model import VectorSetModel


def test_cover_count_sweep(benchmark):
    bundle = prepare_dataset("car", resolution=15)

    def sweep():
        rows = []
        for k in (1, 2, 3, 5, 7, 9):
            features = extract_features(bundle, VectorSetModel(k=k))
            matrix, _ = distance_matrix_for(
                features, "matching", cache_tag=f"ablation_k{k}_car"
            )
            ordering = optics(
                bundle.n, distance_rows_from_matrix(matrix), min_pts=5
            )
            ari, _ = best_cut_quality(ordering, bundle.labels)
            sizes = [len(f) for f in features]
            errors = []
            for grid in bundle.grids()[::10]:
                sequence = extract_cover_sequence(grid, k)
                errors.append(sequence.errors[-1] / max(1, sequence.errors[0]))
            rows.append([k, ari, float(np.mean(sizes)), float(np.mean(errors))])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["covers k", "best ARI", "mean |X|", "mean rel. err"],
            rows,
            title="Ablation — cover count vs clustering quality (Car dataset)",
        )
    )
    by_k = {int(row[0]): row[1] for row in rows}
    # More covers help up to the paper's operating point...
    assert by_k[7] > by_k[1]
    assert by_k[7] >= by_k[3] - 0.02
    # ...and the approximation error shrinks monotonically with k.
    errors = [row[3] for row in rows]
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

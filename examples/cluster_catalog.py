"""Cluster the part catalog with OPTICS and read the reachability plot.

This is the paper's evaluation methodology (Section 5.2) as an
application: instead of judging a similarity model by a handful of
hand-picked queries, cluster the *whole* catalog and inspect the
reachability plot — valleys are groups of similar parts, ridges separate
them, and lone spikes are one-off parts (noise).

Run:  python examples/cluster_catalog.py
"""

from collections import Counter

from repro import Pipeline, VectorSetModel
from repro.clustering import extract_clusters, optics, render_reachability_plot
from repro.clustering.optics import distance_rows_from_matrix
from repro.clustering.quality import best_cut_quality
from repro.datasets import make_car_dataset
from repro.evaluation import distance_matrix_for


def main() -> None:
    parts, labels = make_car_dataset(
        class_counts={
            "tire": 14, "door": 14, "engine_block": 12, "seat": 12, "fender": 12,
        },
        n_noise=6,
        seed=5,
    )
    pipeline = Pipeline(resolution=15)
    objects = pipeline.process_parts(parts)
    model = VectorSetModel(k=7)
    sets = [model.extract(obj.grid) for obj in objects]

    print("computing pairwise minimal matching distances ...")
    matrix, _ = distance_matrix_for(sets, "matching")
    ordering = optics(len(sets), distance_rows_from_matrix(matrix), min_pts=4)

    print()
    print(render_reachability_plot(ordering, height=10, max_width=100,
                                   title="Car catalog — vector set model (k=7)"))

    best_ari, best_eps = best_cut_quality(ordering, labels)
    clusters, noise = extract_clusters(ordering, best_eps)
    print(f"\ncut at eps={best_eps:.3f} (ARI vs ground truth: {best_ari:.3f}):")
    for index, members in enumerate(clusters):
        composition = Counter(objects[m].family for m in members)
        print(f"  cluster {index}: {dict(composition)}")
    print(f"  noise: {len(noise)} parts "
          f"({Counter(objects[m].family for m in noise)})")


if __name__ == "__main__":
    main()

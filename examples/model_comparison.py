"""Compare all four similarity models of the paper on one dataset.

Runs the volume model, the solid-angle model, the cover sequence model
(plain and with the permutation distance) and the vector set model over
the same parts and scores each by how well its OPTICS reachability plot
can be cut into the ground-truth part families — the quantitative
version of the paper's Figures 6–9 comparison.

Run:  python examples/model_comparison.py
"""

from repro import (
    CoverSequenceModel,
    Pipeline,
    SolidAngleModel,
    VectorSetModel,
    VolumeModel,
)
from repro.clustering import optics
from repro.clustering.optics import distance_rows_from_matrix
from repro.clustering.quality import best_cut_quality, structure_contrast
from repro.datasets import make_car_dataset
from repro.evaluation import distance_matrix_for
from repro.evaluation.report import format_table


def main() -> None:
    parts, labels = make_car_dataset(
        class_counts={"tire": 12, "door": 12, "engine_block": 12, "seat": 12},
        n_noise=5,
        seed=31,
    )

    pipeline15 = Pipeline(resolution=15)
    pipeline30 = Pipeline(resolution=30)
    objects15 = pipeline15.process_parts(parts)
    objects30 = pipeline30.process_parts(parts)

    rows = []

    def score(name, features, kind):
        matrix, _ = distance_matrix_for(features, kind)
        ordering = optics(len(parts), distance_rows_from_matrix(matrix), min_pts=4)
        ari, _ = best_cut_quality(ordering, labels)
        rows.append([name, ari, structure_contrast(ordering)])

    # Histogram models on r = 30 (the paper's pairing).
    for model in (VolumeModel(5), SolidAngleModel(5, kernel_radius=4)):
        features = [model.extract(obj.grid) for obj in objects30]
        score(model.name, features, "euclidean")

    # Cover-based models on r = 15.
    cover_model = CoverSequenceModel(k=7)
    cover_features = [cover_model.extract(obj.grid) for obj in objects15]
    score(cover_model.name + " / euclidean", cover_features, "euclidean")

    set_model = VectorSetModel(k=7)
    vector_sets = [set_model.extract(obj.grid) for obj in objects15]
    score("cover sequence / permutation distance", vector_sets, "permutation")
    score(set_model.name + " / min matching", vector_sets, "matching")

    print()
    print(
        format_table(
            ["model / distance", "best ARI", "plot contrast"],
            rows,
            title="Model comparison on the synthetic car dataset",
        )
    )


if __name__ == "__main__":
    main()

"""Figures 5–10: reachability-plot experiments.

Each panel of Figures 6–9 is an OPTICS run of one (model, dataset)
combination; Figure 10 inspects the classes found in the Car dataset's
plots.  The paper judges the plots visually; since our synthetic data
has ground-truth labels we additionally report, per panel,

* the best adjusted Rand index over all eps cuts (can the model's plot
  be cut into the true classes at all?),
* the label-free structure contrast of the plot,

so the paper's qualitative ranking (volume < solid-angle < cover
sequence < vector set) becomes a measurable ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.optics import ClusterOrdering, distance_rows_from_matrix, optics
from repro.clustering.quality import best_cut_quality, structure_contrast
from repro.clustering.reachability import extract_clusters, render_reachability_plot
from repro.evaluation.experiments import (
    DatasetBundle,
    distance_matrix_for,
    extract_features,
    model_resolution,
    paper_model,
    prepare_dataset,
)
from repro.exceptions import ReproError


@dataclass
class PanelResult:
    """One reachability-plot panel with its quality scores."""

    figure: str
    dataset: str
    model: str
    ordering: ClusterOrdering
    best_ari: float
    best_eps: float
    contrast: float

    def render(self, height: int = 10, width: int = 100) -> str:
        title = (
            f"{self.figure} [{self.dataset} / {self.model}] "
            f"best-ARI={self.best_ari:.3f} contrast={self.contrast:.3f}"
        )
        return render_reachability_plot(
            self.ordering, height=height, max_width=width, title=title
        )


#: Figure -> (model name, distance kind, cover count or None).
FIGURE_PANELS: dict[str, tuple[str, str, int | None]] = {
    "fig6-volume": ("volume", "euclidean", None),
    "fig6-solid-angle": ("solid-angle", "euclidean", None),
    "fig7-cover": ("cover", "euclidean", 7),
    "fig8-cover-permutation": ("vector-set", "permutation", 7),
    "fig9-vector-set-3": ("vector-set", "matching", 3),
    "fig9-vector-set-7": ("vector-set", "matching", 7),
}


def run_panel(
    figure: str,
    dataset: str,
    n: int | None = None,
    min_pts: int = 5,
    use_cache: bool = True,
) -> PanelResult:
    """Run one (figure, dataset) reachability-plot panel."""
    try:
        model_name, kind, k = FIGURE_PANELS[figure]
    except KeyError:
        raise ReproError(
            f"unknown figure {figure!r}; choose from {sorted(FIGURE_PANELS)}"
        ) from None
    resolution = model_resolution(model_name)
    bundle = prepare_dataset(dataset, resolution=resolution, n=n, use_cache=use_cache)
    model = paper_model(model_name, k=k or 7)
    features = extract_features(bundle, model, use_cache=use_cache)
    tag = f"{figure}_{dataset}_n{bundle.n}"
    matrix, _ = distance_matrix_for(
        features, kind=kind, cache_tag=tag, use_cache=use_cache
    )
    ordering = optics(bundle.n, distance_rows_from_matrix(matrix), min_pts=min_pts)
    ari, eps = best_cut_quality(ordering, bundle.labels)
    return PanelResult(
        figure=figure,
        dataset=dataset,
        model=model.name if k is None else f"{model.name}",
        ordering=ordering,
        best_ari=ari,
        best_eps=eps,
        contrast=structure_contrast(ordering),
    )


def run_figure(
    figure_prefix: str,
    datasets: tuple[str, ...] = ("car", "aircraft"),
    n: int | None = None,
    use_cache: bool = True,
) -> list[PanelResult]:
    """All panels of one figure (e.g. ``"fig6"``) across datasets."""
    panels = [name for name in FIGURE_PANELS if name.startswith(figure_prefix)]
    if not panels:
        raise ReproError(f"no panels match prefix {figure_prefix!r}")
    return [
        run_panel(panel, dataset, n=n, use_cache=use_cache)
        for panel in sorted(panels)
        for dataset in datasets
    ]


# -- Figure 10: class evaluation ------------------------------------------------


@dataclass
class ClassEvaluation:
    """Figure 10 for one model: the clusters found at the best cut and
    their family composition."""

    model: str
    eps: float
    clusters: list[dict[str, int]]  # per cluster: family -> member count
    n_noise: int
    ari: float


def figure10_class_evaluation(
    figures: tuple[str, ...] = ("fig6-solid-angle", "fig7-cover", "fig9-vector-set-7"),
    dataset: str = "car",
    n: int | None = None,
    use_cache: bool = True,
) -> list[ClassEvaluation]:
    """Reproduce Figure 10: which part families the clusters contain,
    per model, on the Car dataset."""
    evaluations = []
    for figure in figures:
        panel = run_panel(figure, dataset, n=n, use_cache=use_cache)
        bundle = prepare_dataset(
            dataset,
            resolution=model_resolution(FIGURE_PANELS[figure][0]),
            n=n,
            use_cache=use_cache,
        )
        clusters, noise = extract_clusters(panel.ordering, panel.best_eps)
        families = [obj.family for obj in bundle.objects]
        composition = []
        for members in clusters:
            counts: dict[str, int] = {}
            for member in members:
                counts[families[member]] = counts.get(families[member], 0) + 1
            composition.append(dict(sorted(counts.items(), key=lambda kv: -kv[1])))
        evaluations.append(
            ClassEvaluation(
                model=panel.model,
                eps=panel.best_eps,
                clusters=composition,
                n_noise=len(noise),
                ari=panel.best_ari,
            )
        )
    return evaluations


def figure5_demo(seed: int = 42, min_pts: int = 5) -> PanelResult:
    """Figure 5: OPTICS on a sample 2-D dataset with nested clusters."""
    rng = np.random.default_rng(seed)
    cluster_a1 = rng.normal(loc=(0.0, 0.0), scale=0.04, size=(40, 2))
    cluster_a2 = rng.normal(loc=(0.35, 0.05), scale=0.05, size=(40, 2))
    cluster_b = rng.normal(loc=(1.2, 0.8), scale=0.10, size=(50, 2))
    noise = rng.uniform(-0.4, 1.8, size=(15, 2))
    points = np.vstack([cluster_a1, cluster_a2, cluster_b, noise])
    labels = np.array([0] * 40 + [1] * 40 + [2] * 50 + [-i - 1 for i in range(15)])
    diff = points[:, np.newaxis, :] - points[np.newaxis, :, :]
    matrix = np.sqrt(np.sum(diff * diff, axis=2))
    ordering = optics(len(points), distance_rows_from_matrix(matrix), min_pts=min_pts)
    ari, eps = best_cut_quality(ordering, labels)
    return PanelResult(
        figure="fig5-demo",
        dataset="2d-sample",
        model="euclidean",
        ordering=ordering,
        best_ari=ari,
        best_eps=eps,
        contrast=structure_contrast(ordering),
    )

"""Clustering layer: OPTICS, reachability plots and evaluation metrics.

The paper evaluates similarity models by running the density-based
hierarchical clustering algorithm OPTICS (Ankerst et al. 1999) on the
whole dataset and inspecting the reachability plots (Section 5.2).  This
subpackage reimplements OPTICS, the plot/cluster-extraction machinery of
Figure 5, and — since our synthetic datasets have ground-truth classes —
objective cluster-quality metrics that replace the paper's visual
inspection.
"""

from repro.clustering.optics import ClusterOrdering, optics
from repro.clustering.quality import (
    adjusted_rand_index,
    best_cut_quality,
    structure_contrast,
)
from repro.clustering.reachability import extract_clusters, render_reachability_plot

__all__ = [
    "optics",
    "ClusterOrdering",
    "extract_clusters",
    "render_reachability_plot",
    "adjusted_rand_index",
    "best_cut_quality",
    "structure_contrast",
]

"""Normalization layer: translation, scaling, rotation, reflection.

Section 3.2 of the paper requires translation and rotation invariance and
*tunable* reflection and scaling invariance.  This subpackage provides:

* :mod:`repro.normalize.pose` — translation/scale normalization with the
  per-axis scale factors stored so scaling invariance can be switched on
  or off at query time,
* :mod:`repro.normalize.pca` — the principal-axis transform used when
  arbitrary (not just 90-degree) rotation invariance is desired,
* :mod:`repro.normalize.symmetry` — the canonical 90-degree pose that
  quotients out the 24/48-fold cube symmetry group (Definition 2).
"""

from repro.normalize.pca import pca_align_grid, pca_align_points, principal_axes
from repro.normalize.pose import PoseInfo, normalize_grid
from repro.normalize.symmetry import canonical_symmetry_matrix

__all__ = [
    "PoseInfo",
    "normalize_grid",
    "principal_axes",
    "pca_align_points",
    "pca_align_grid",
    "canonical_symmetry_matrix",
]

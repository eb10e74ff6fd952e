"""The vector set model (Section 4) — the paper's primary contribution.

Instead of flattening the cover sequence into one ``6k``-dimensional
vector (whose cover *order* can ruin the similarity notion, Figure 4),
the object is represented by the *set* of its 6-d cover vectors, with
cardinality at most ``k`` and no dummy padding.  Distances between such
sets are computed by :mod:`repro.core.min_matching`.
"""

from __future__ import annotations

import numpy as np

from repro.features.base import FeatureModel
from repro.features.cover_sequence import extract_cover_sequence
from repro.voxel.grid import VoxelGrid


class VectorSetModel(FeatureModel):
    """Extract an object's covers as an ``(m, 6)`` vector set, ``m <= k``.

    Parameters mirror :class:`~repro.features.cover_sequence.CoverSequenceModel`;
    the difference is purely representational: no ordering is imposed and
    no dummy covers are stored (Section 4.1 names this storage advantage
    explicitly).
    """

    def __init__(
        self,
        k: int = 7,
        allow_subtraction: bool = True,
        normalize: bool = True,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.allow_subtraction = allow_subtraction
        self.normalize = normalize

    @property
    def name(self) -> str:
        return f"vector-set(k={self.k})"

    def dimension(self, resolution: int) -> int:
        """Dimensionality of the *element* space (6), not of the set."""
        return 6

    def extract(self, grid: VoxelGrid) -> np.ndarray:
        sequence = extract_cover_sequence(grid, self.k, self.allow_subtraction)
        return sequence.feature_vectors(self.normalize)

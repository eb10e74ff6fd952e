"""Tunable scaling invariance (Section 3.2).

Objects are stored normalized; the original per-axis extents survive as
the :class:`~repro.normalize.pose.PoseInfo` scale factors so that
scaling invariance "can be (de)activated depending on the user's needs
at runtime".  This module implements the deactivation for the
cover-based features: :func:`denormalize_cover_vectors` maps normalized
6-d cover vectors back to world units using the stored factors, after
which distances compare true sizes — a small bracket and a scaled-up
copy of it stop being identical.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FeatureError
from repro.normalize.pose import PoseInfo


def denormalize_cover_vectors(
    vectors: np.ndarray,
    pose: PoseInfo,
    margin_fraction: float = 0.0,
) -> np.ndarray:
    """Scale normalized cover vectors back to world units.

    The pipeline fits the object's largest extent into the raster, so
    one isotropic factor ``max(scale_factors) * (1 + margin)`` maps
    raster-relative positions and extents to world lengths.

    Parameters
    ----------
    vectors:
        ``(m, 6)`` normalized cover vectors (positions relative to the
        raster center and extents, both divided by the resolution).
    pose:
        The pose bookkeeping stored with the object.
    margin_fraction:
        The fraction of the raster kept empty by the voxelization margin
        (``2 * margin / resolution``); 0 is fine for similarity use as
        it cancels between objects voxelized with equal margins.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise FeatureError(f"expected (m, 6) cover vectors, got {arr.shape}")
    if not 0.0 <= margin_fraction < 1.0:
        raise FeatureError("margin_fraction must be in [0, 1)")
    world_per_raster = max(pose.scale_factors) / (1.0 - margin_fraction)
    return arr * world_per_raster

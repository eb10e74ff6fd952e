"""Feature models for voxelized CAD objects (Sections 3.3 and 4).

Four models are provided:

* :class:`~repro.features.volume.VolumeModel` — normalized voxel counts
  per grid cell (Section 3.3.1),
* :class:`~repro.features.solid_angle.SolidAngleModel` — mean solid-angle
  values per cell (Section 3.3.2),
* :class:`~repro.features.cover_sequence.CoverSequenceModel` — 6k-d
  feature vector from a greedy rectangular cover sequence
  (Section 3.3.3),
* :class:`~repro.features.vector_set_model.VectorSetModel` — the paper's
  contribution: the same covers as a *set* of 6-d vectors (Section 4).
"""

from repro.features.base import FeatureModel, cell_counts, cell_index_of_voxels
from repro.features.cover_sequence import (
    Cover,
    CoverSequence,
    CoverSequenceModel,
    extract_cover_sequence,
)
from repro.features.scaling import denormalize_cover_vectors
from repro.features.solid_angle import SolidAngleModel, solid_angle_values
from repro.features.vector_set_model import VectorSetModel
from repro.features.volume import VolumeModel

__all__ = [
    "FeatureModel",
    "cell_counts",
    "cell_index_of_voxels",
    "VolumeModel",
    "SolidAngleModel",
    "solid_angle_values",
    "Cover",
    "CoverSequence",
    "CoverSequenceModel",
    "extract_cover_sequence",
    "VectorSetModel",
    "denormalize_cover_vectors",
]

"""repro — similarity search on voxelized CAD objects with vector sets.

A full reproduction of Kriegel, Brecheisen, Kröger, Pfeifle & Schubert:
*"Using Sets of Feature Vectors for Similarity Search on Voxelized CAD
Objects"* (SIGMOD 2003), including every substrate the paper builds on:
geometry and voxelization, the three single-vector similarity models,
the vector set model with the minimal matching distance, the extended-
centroid filter step, spatial/metric index structures with the paper's
I/O cost model, OPTICS clustering, and synthetic labeled stand-ins for
the proprietary Car and Aircraft datasets.

Quickstart::

    from repro import Pipeline, VectorSetModel, min_matching_distance
    from repro.datasets import make_car_dataset

    parts, labels = make_car_dataset()
    pipeline = Pipeline(resolution=15)
    objects = pipeline.process_parts(parts)
    model = VectorSetModel(k=7)
    sets = [model.extract(obj.grid) for obj in objects]
    print(min_matching_distance(sets[0], sets[1]))

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.core.centroid import centroid_lower_bound, extended_centroid
from repro.core.min_matching import (
    MatchResult,
    min_matching_distance,
    min_matching_match,
)
from repro.core.permutation import (
    permutation_distance_bruteforce,
    permutation_distance_via_matching,
)
from repro.core.queries import FilterRefineEngine, QueryMatch, QueryStats
from repro.core.vector_set import VectorSet
from repro.exceptions import IngestError, ReproError, StorageError
from repro.features.cover_sequence import CoverSequenceModel, extract_cover_sequence
from repro.features.solid_angle import SolidAngleModel
from repro.features.vector_set_model import VectorSetModel
from repro.features.volume import VolumeModel
from repro.pipeline import IngestRecord, IngestReport, Pipeline, ProcessedObject
from repro.voxel.grid import VoxelGrid
from repro.voxel.voxelize import voxelize_mesh, voxelize_solid

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "StorageError",
    "IngestError",
    "Pipeline",
    "ProcessedObject",
    "IngestReport",
    "IngestRecord",
    "VoxelGrid",
    "voxelize_solid",
    "voxelize_mesh",
    "VolumeModel",
    "SolidAngleModel",
    "CoverSequenceModel",
    "VectorSetModel",
    "extract_cover_sequence",
    "VectorSet",
    "MatchResult",
    "min_matching_distance",
    "min_matching_match",
    "permutation_distance_bruteforce",
    "permutation_distance_via_matching",
    "extended_centroid",
    "centroid_lower_bound",
    "FilterRefineEngine",
    "QueryMatch",
    "QueryStats",
]

"""Dataset and feature preparation with on-disk caching.

Feature extraction (greedy covers, solid-angle convolutions) and the
pairwise matching-distance matrices behind the OPTICS figures are the
expensive parts of the evaluation.  Both are deterministic functions of
(dataset, seed, resolution, model parameters), so they are cached under
``REPRO_CACHE_DIR`` (default: ``.repro_cache/`` in the working
directory) and reused across test/benchmark runs.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.permutation import permutation_distance_matrix
from repro.datasets.aircraft import default_aircraft_size, make_aircraft_dataset
from repro.datasets.car import make_car_dataset
from repro.exceptions import ReproError
from repro.features.base import FeatureModel
from repro.features.cover_sequence import CoverSequenceModel
from repro.features.solid_angle import SolidAngleModel
from repro.features.vector_set_model import VectorSetModel
from repro.features.volume import VolumeModel
from repro.pipeline import Pipeline, ProcessedObject


def cache_dir() -> Path:
    """The feature/distance cache directory (created on demand)."""
    root = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))
    root.mkdir(parents=True, exist_ok=True)
    return root


def _load_npz(path: Path) -> dict[str, np.ndarray] | None:
    """Every array of the cache entry at *path*, or ``None`` on a miss.

    A truncated or corrupt entry (a writer killed mid-write) is a miss
    too, so the caller regenerates and rewrites it."""
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            return {name: data[name] for name in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error):
        return None


def _save_npz(path: Path, **arrays: np.ndarray) -> None:
    """Store a cache entry atomically (unique temp file + replace)."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class DatasetBundle:
    """A prepared dataset: processed objects plus ground-truth labels."""

    dataset: str
    resolution: int
    objects: list[ProcessedObject]
    labels: np.ndarray

    @property
    def n(self) -> int:
        return len(self.objects)

    def grids(self):
        return [obj.grid for obj in self.objects]


def _generate_parts(dataset: str, n: int | None, seed: int):
    if dataset == "car":
        return make_car_dataset(seed=seed)
    if dataset == "aircraft":
        return make_aircraft_dataset(n=n, seed=seed)
    raise ReproError(f"unknown dataset {dataset!r} (use 'car' or 'aircraft')")


def prepare_dataset(
    dataset: str,
    resolution: int = 15,
    n: int | None = None,
    seed: int | None = None,
    use_cache: bool = True,
) -> DatasetBundle:
    """Generate, voxelize and normalize a dataset (cached on disk)."""
    if seed is None:
        seed = 2003 if dataset == "car" else 1903
    if dataset == "aircraft" and n is None:
        n = default_aircraft_size()
    key = f"{dataset}_r{resolution}_n{n or 'std'}_s{seed}"
    path = cache_dir() / f"grids_{key}.npz"
    pipeline = Pipeline(resolution=resolution)

    data = _load_npz(path) if use_cache else None
    if data is not None:
        labels = data["labels"]
        packed = data["packed"]
        names = [str(s) for s in data["names"]]
        families = [str(s) for s in data["families"]]
        scales = data["scales"]
        from repro.normalize.pose import PoseInfo
        from repro.voxel.grid import VoxelGrid

        objects = []
        n_voxels = resolution**3
        for i in range(len(labels)):
            occupancy = np.unpackbits(packed[i], count=n_voxels).astype(bool)
            objects.append(
                ProcessedObject(
                    name=names[i],
                    family=families[i],
                    class_id=int(labels[i]),
                    grid=VoxelGrid(occupancy.reshape((resolution,) * 3)),
                    pose=PoseInfo(tuple(scales[i]), (0, 0, 0)),
                )
            )
        return DatasetBundle(dataset, resolution, objects, labels)

    parts, labels = _generate_parts(dataset, n, seed)
    objects = pipeline.process_parts(parts)
    if use_cache:
        _save_npz(
            path,
            labels=labels,
            packed=np.stack([np.packbits(obj.grid.occupancy) for obj in objects]),
            names=np.array([obj.name for obj in objects]),
            families=np.array([obj.family for obj in objects]),
            scales=np.array([obj.pose.scale_factors for obj in objects]),
        )
    return DatasetBundle(dataset, resolution, objects, np.asarray(labels))


# -- canonical model configurations (the paper's settings) --------------------


def paper_model(name: str, k: int = 7, partitions: int = 5) -> FeatureModel:
    """The model configurations used in Section 5.

    ``volume`` / ``solid-angle`` run on r = 30 histograms; ``cover`` and
    ``vector-set`` on r = 15 with k covers.
    """
    if name == "volume":
        return VolumeModel(partitions=partitions)
    if name == "solid-angle":
        return SolidAngleModel(partitions=partitions, kernel_radius=4)
    if name == "cover":
        return CoverSequenceModel(k=k)
    if name == "vector-set":
        return VectorSetModel(k=k)
    raise ReproError(f"unknown model {name!r}")


def model_resolution(name: str) -> int:
    """The raster resolution the paper pairs with each model."""
    return 30 if name in ("volume", "solid-angle") else 15


def extract_features(
    bundle: DatasetBundle,
    model: FeatureModel,
    use_cache: bool = True,
    n_jobs: int | None = None,
) -> list[np.ndarray]:
    """Extract one feature array per object.

    Goes through the content-addressed per-object cache of
    :mod:`repro.features.cache` (keyed on occupancy bits + model
    parameters), so features are shared between datasets, subsets and
    runs that contain the same object — not just exact repetitions of
    one aggregate (dataset, n, model) tuple as the earlier whole-bundle
    ``.npz`` cache required.  ``n_jobs`` fans extraction of cache misses
    out over the shared process pool.
    """
    from repro.features.cache import FeatureCache

    cache = FeatureCache(enabled=use_cache)
    features = model.extract_many(bundle.grids(), n_jobs=n_jobs, cache=cache)
    cache.flush_stats()
    return features


# -- pairwise distance matrices ------------------------------------------------


#: What each kind computes.  A cached matrix is keyed by this text and
#: the features' bytes, so new features or a changed definition miss
#: instead of being served a matrix of the old ones.
_KIND_DEFINITIONS = {
    "euclidean": "Euclidean distance of the flattened features",
    "matching": "Definition 6, omega = 0, the batched kernel",
    "permutation": "Definition 4 at the largest set's capacity, the batched kernel",
}


def _matrix_key(features: list[np.ndarray], kind: str) -> str:
    digest = hashlib.sha256(_KIND_DEFINITIONS[kind].encode())
    for feature in features:
        arr = np.ascontiguousarray(feature, dtype=float)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


def distance_matrix_for(
    features: list[np.ndarray],
    kind: str,
    cache_tag: str | None = None,
    use_cache: bool = True,
    n_jobs: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pairwise distances (and permutation flags for matching kinds).

    Parameters
    ----------
    kind:
        ``"euclidean"`` — flat feature vectors, vectorized;
        ``"matching"`` — minimal matching distance on vector sets
        (Euclidean elements, norm weights), computed through the batched
        kernel of :mod:`repro.core.batch`;
        ``"permutation"`` — minimum Euclidean distance under permutation
        (Definition 4) at the capacity of the largest set, through the
        same kernel's squared form.
    n_jobs:
        Worker processes for the set kinds (default: serial).

    Returns
    -------
    ``(matrix, proper_permutation)`` where the flag matrix marks pairs
    whose optimal matching was *not* the identity alignment (None for
    the euclidean and permutation kinds) — the statistic behind Table 1.
    """
    if kind not in _KIND_DEFINITIONS:
        raise ReproError(f"unknown distance kind {kind!r}")
    path = None
    if cache_tag and use_cache:
        path = cache_dir() / f"dist_{cache_tag}_{_matrix_key(features, kind)}.npz"
        data = _load_npz(path)
        if data is not None:
            return data["matrix"], data.get("flags")
    flags: np.ndarray | None = None

    if kind == "euclidean":
        from repro.core.min_matching import euclidean_cross

        flat = np.vstack([np.asarray(f, dtype=float).ravel() for f in features])
        matrix = euclidean_cross(flat, flat)
    elif kind == "matching":
        from repro.core.batch import pairwise_matrix

        matrix, flags = pairwise_matrix(features, n_jobs=n_jobs, return_flags=True)
    else:
        matrix = permutation_distance_matrix(features, n_jobs=n_jobs)

    if path is not None:
        payload = {"matrix": matrix}
        if flags is not None:
            payload["flags"] = flags
        _save_npz(path, **payload)
    return matrix, flags

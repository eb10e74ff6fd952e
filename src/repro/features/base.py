"""Shared infrastructure of the feature models.

The histogram models of Section 3.3 partition the ``r^3`` raster into
``p^3`` axis-parallel, equi-sized cells ("coarse voxels"); the paper
requires ``r / p`` to be an integer so each voxel belongs to exactly one
cell.  This module provides that partitioning plus the abstract
:class:`FeatureModel` interface every model implements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import FeatureError
from repro.voxel.grid import VoxelGrid


def check_partition(resolution: int, p: int) -> int:
    """Validate the cell partitioning and return the cell side ``r / p``."""
    if p < 1:
        raise FeatureError("number of partitions p must be >= 1")
    if resolution % p != 0:
        raise FeatureError(
            f"r/p must be an integer for a unique voxel-to-cell assignment "
            f"(got r={resolution}, p={p})"
        )
    return resolution // p


def cell_counts(grid: VoxelGrid, p: int) -> np.ndarray:
    """Number of object voxels per cell, flattened to ``(p^3,)``.

    Cell ``(a, b, c)`` maps to flat index ``a * p^2 + b * p + c``; this
    fixed enumeration is what makes histogram bins comparable between
    objects.
    """
    side = check_partition(grid.resolution, p)
    blocks = grid.occupancy.reshape(p, side, p, side, p, side)
    return blocks.sum(axis=(1, 3, 5)).reshape(-1)


def cell_index_of_voxels(indices: np.ndarray, resolution: int, p: int) -> np.ndarray:
    """Map ``(n, 3)`` voxel indices to their flat cell index."""
    side = check_partition(resolution, p)
    cells = indices // side
    return cells[:, 0] * p * p + cells[:, 1] * p + cells[:, 2]


class FeatureModel(ABC):
    """A feature transform ``F: O -> R^d`` in the sense of Definition 1.

    Implementations are stateless value objects: all parameters are fixed
    at construction so a model instance can be shared between extraction,
    indexing and query processing.
    """

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in reports and experiment tables."""

    @abstractmethod
    def dimension(self, resolution: int) -> int:
        """Feature dimensionality for a given raster resolution."""

    @abstractmethod
    def extract(self, grid: VoxelGrid) -> np.ndarray:
        """Map a voxel grid to its feature vector (or vector set)."""

    def extract_many(
        self,
        grids: list[VoxelGrid],
        n_jobs: int | None = None,
        cache=None,
    ) -> list[np.ndarray]:
        """Extract features for a list of grids.

        Parameters
        ----------
        n_jobs:
            Worker processes (``None``/``0`` = serial, negative = all
            cores) drawn from the shared pool of :mod:`repro.parallel`.
            Results keep input order and are bit-identical to a serial
            run; the first failure (by input order) is raised.
        cache:
            Optional :class:`repro.features.cache.FeatureCache`: hits
            skip extraction entirely, misses are stored after
            extraction.
        """
        features: list[np.ndarray] = []
        for ok, value in self.extract_many_outcomes(grids, n_jobs=n_jobs, cache=cache):
            if not ok:
                raise value
            features.append(value)
        return features

    def extract_many_outcomes(
        self,
        grids: list[VoxelGrid],
        n_jobs: int | None = None,
        cache=None,
    ) -> list[tuple[bool, object]]:
        """Per-grid ``(ok, feature_or_exception)`` outcomes, input order.

        The failure-isolating variant of :meth:`extract_many`: callers
        with per-object fault policies (the ingest pipeline) inspect
        each outcome instead of losing the whole batch to one bad grid.
        Failed extractions are never cached.
        """
        from repro.parallel import pool_map, resolve_n_jobs

        jobs = resolve_n_jobs(n_jobs)
        results: list[tuple[bool, object] | None] = [None] * len(grids)
        pending: list[int] = []
        for index, grid in enumerate(grids):
            hit = cache.get(grid, self) if cache is not None else None
            if hit is not None:
                results[index] = (True, hit)
            else:
                pending.append(index)
        if pending:
            outcomes = pool_map(
                _extract_outcome,
                [(self, grids[i]) for i in pending],
                jobs,
                chunksize=max(1, len(pending) // (4 * jobs)),
            )
            for index, outcome in zip(pending, outcomes):
                results[index] = outcome
                if outcome[0] and cache is not None:
                    cache.put(grids[index], self, outcome[1])
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _extract_outcome(task) -> tuple[bool, object]:
    """Process-pool work unit: one extraction, failures as values.

    Module-level (picklable) and exception-capturing so a worker crash
    on one grid surfaces as that grid's outcome instead of poisoning
    the pool.
    """
    model, grid = task
    try:
        return True, model.extract(grid)
    except Exception as exc:
        return False, exc

"""End-to-end preparation pipeline: geometry -> voxels -> features.

Mirrors the paper's data flow (Section 3): parts are voxelized at a
raster resolution ``r``, normalized with respect to translation and
scaling (storing the per-axis scale factors), brought into a canonical
90-degree pose (the stored-object side of Definition 2's invariances),
and finally handed to a feature model.

    >>> from repro.pipeline import Pipeline
    >>> from repro.datasets import make_car_dataset
    >>> from repro.features import VectorSetModel
    >>> parts, labels = make_car_dataset()
    >>> pipeline = Pipeline(resolution=15)
    >>> objects = pipeline.process_parts(parts[:4])
    >>> sets = [VectorSetModel(k=7).extract(o.grid) for o in objects]
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.datasets.parts import CADPart
from repro.exceptions import IngestError, ReproError, StorageError
from repro.geometry.mesh import TriangleMesh
from repro.geometry.sdf import Solid
from repro.normalize.pose import PoseInfo, normalize_grid
from repro.obs import emit, registry, span
from repro.voxel.grid import VoxelGrid
from repro.voxel.voxelize import voxelize_mesh, voxelize_solid

#: Valid values for the ``on_error`` ingestion policy.
ON_ERROR_POLICIES = ("raise", "skip", "retry")

#: Mesh file suffixes the directory ingest path recognizes.
MESH_SUFFIXES = (".stl", ".off")


@dataclass(frozen=True)
class ProcessedObject:
    """A dataset object after the full preparation pipeline."""

    name: str
    family: str
    class_id: int
    grid: VoxelGrid
    pose: PoseInfo


@dataclass(frozen=True)
class IngestRecord:
    """Per-object outcome of a batch ingest.

    Attributes
    ----------
    name:
        Object name (part name or mesh file stem).
    status:
        ``"ok"`` or ``"failed"``.
    attempts:
        How many pipeline attempts were spent on this object (1 for a
        first-try success, up to the length of the retry ladder).
    seconds:
        Wall time spent on this object across all attempts.
    error_type / error:
        Exception class name and message of the *last* failure (``None``
        for successes).
    fallback:
        Which retry-ladder rung produced the success (``None`` when the
        initial attempt worked), e.g. ``"supersample"`` or
        ``"reduced-resolution"``.
    source:
        Originating file for directory ingests, ``None`` otherwise.
    """

    name: str
    status: str
    attempts: int
    seconds: float
    error_type: str | None = None
    error: str | None = None
    fallback: str | None = None
    source: str | None = None


class IngestReport(Sequence):
    """Outcome of a batch ingest: surviving objects plus per-object records.

    The report is a read-only sequence of the successfully processed
    :class:`ProcessedObject` instances, so existing callers that iterate
    or index the result of :meth:`Pipeline.process_parts` keep working
    unchanged.  Failure details live in :attr:`records`.
    """

    def __init__(self, policy: str = "raise") -> None:
        self.policy = policy
        self.records: list[IngestRecord] = []
        self.objects: list[ProcessedObject] = []

    # -- sequence protocol (over the successes) -----------------------------

    def __len__(self) -> int:
        return len(self.objects)

    def __getitem__(self, index):
        return self.objects[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IngestReport(ok={len(self.objects)}, "
            f"failed={len(self.failures)}, policy={self.policy!r})"
        )

    # -- recording -----------------------------------------------------------

    def record_success(
        self,
        obj: ProcessedObject,
        attempts: int = 1,
        seconds: float = 0.0,
        fallback: str | None = None,
        source: str | None = None,
    ) -> None:
        self.objects.append(obj)
        self.records.append(
            IngestRecord(
                name=obj.name,
                status="ok",
                attempts=attempts,
                seconds=seconds,
                fallback=fallback,
                source=source,
            )
        )

    def record_failure(
        self,
        name: str,
        exc: BaseException,
        attempts: int = 1,
        seconds: float = 0.0,
        source: str | None = None,
    ) -> None:
        self.records.append(
            IngestRecord(
                name=name,
                status="failed",
                attempts=attempts,
                seconds=seconds,
                error_type=type(exc).__name__,
                error=str(exc),
                source=source,
            )
        )

    def demote(self, obj: ProcessedObject, exc: BaseException) -> None:
        """Convert an earlier success into a failure (e.g. a later stage
        such as feature extraction rejected the object)."""
        self.objects = [o for o in self.objects if o is not obj]
        for index, rec in enumerate(self.records):
            if rec.name == obj.name and rec.status == "ok":
                self.records[index] = replace(
                    rec,
                    status="failed",
                    error_type=type(exc).__name__,
                    error=str(exc),
                )
                return
        self.record_failure(obj.name, exc)

    # -- reporting -----------------------------------------------------------

    @property
    def failures(self) -> list[IngestRecord]:
        return [rec for rec in self.records if rec.status == "failed"]

    @property
    def total_seconds(self) -> float:
        return sum(rec.seconds for rec in self.records)

    def all_ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """Human-readable multi-line summary (used by the CLI)."""
        lines = [
            f"{len(self.objects)}/{len(self.records)} objects ingested "
            f"({len(self.failures)} failed, policy={self.policy}, "
            f"{self.total_seconds:.2f}s)"
        ]
        for rec in self.failures:
            where = rec.source or rec.name
            lines.append(
                f"  FAILED {where}: {rec.error_type}: {rec.error} "
                f"(attempts={rec.attempts})"
            )
        return "\n".join(lines)


class Pipeline:
    """Voxelization + normalization pipeline.

    Parameters
    ----------
    resolution:
        Raster resolution ``r`` (the paper uses 15 for the cover-based
        models and 30 for the histogram models).
    margin:
        Empty voxels kept on each raster side.
    keep_aspect:
        Preserve object proportions when fitting into the raster.
    canonical_pose:
        Quotient out the 90-degree-rotation/reflection invariance at
        ingest by rotating every object into its canonical pose (see
        :func:`repro.normalize.symmetry.canonical_symmetry_matrix`).
        Disable to keep raw poses and evaluate Definition 2's minimum
        per distance computation instead.
    include_reflections:
        Whether the canonical pose may mirror objects (tunable
        reflection invariance, Section 3.2).
    """

    def __init__(
        self,
        resolution: int = 15,
        margin: int = 1,
        keep_aspect: bool = True,
        canonical_pose: bool = True,
        include_reflections: bool = True,
    ):
        if resolution < 2:
            raise ReproError("resolution must be >= 2")
        self.resolution = resolution
        self.margin = margin
        self.keep_aspect = keep_aspect
        self.canonical_pose = canonical_pose
        self.include_reflections = include_reflections

    # -- single objects -----------------------------------------------------

    def process_grid(self, grid: VoxelGrid) -> tuple[VoxelGrid, PoseInfo]:
        """Normalize an already-voxelized object."""
        return normalize_grid(grid, self.canonical_pose, self.include_reflections)

    def process_solid(
        self,
        solid: Solid,
        resolution: int | None = None,
        supersample: int | None = None,
    ) -> tuple[VoxelGrid, PoseInfo]:
        """Voxelize and normalize an analytic solid.

        Uses unbiased center sampling; if a degenerate alignment leaves
        the grid empty (possible for features much thinner than one
        voxel), the voxelization is retried with conservative
        supersampling before giving up.  ``resolution``/``supersample``
        override the pipeline defaults (used by the retry ladder).
        """
        res = resolution or self.resolution
        base_supersample = supersample or 1
        grid = voxelize_solid(
            solid,
            res,
            margin=self.margin,
            keep_aspect=self.keep_aspect,
            supersample=base_supersample,
        )
        if grid.is_empty() and base_supersample == 1:
            grid = voxelize_solid(
                solid,
                res,
                margin=self.margin,
                keep_aspect=self.keep_aspect,
                supersample=4,
            )
        if grid.is_empty():
            raise ReproError("solid voxelized to an empty grid; check its size")
        return self.process_grid(grid)

    def process_mesh(
        self,
        mesh: TriangleMesh,
        fill: bool = True,
        resolution: int | None = None,
    ) -> tuple[VoxelGrid, PoseInfo]:
        """Voxelize and normalize a triangle mesh."""
        grid = voxelize_mesh(
            mesh,
            resolution or self.resolution,
            margin=self.margin,
            keep_aspect=self.keep_aspect,
            fill=fill,
        )
        return self.process_grid(grid)

    def features_for_grid(self, grid: VoxelGrid, model, cache=None) -> np.ndarray:
        """Normalize one grid and extract its feature array.

        The single-object ingest flow (normalize → content-addressed
        feature cache → extract on miss) used by the mutable similarity
        database's ``add`` path; batch ingestion goes through
        ``process_parts``/``extract_many`` instead.  Pass a
        :class:`~repro.features.cache.FeatureCache` to share entries
        across calls, or None for a default-rooted cache.
        """
        from repro.features.cache import FeatureCache

        normalized, _pose = self.process_grid(grid)
        cache = cache if cache is not None else FeatureCache()
        return cache.get_or_extract(normalized, model)

    def process_part(self, part: CADPart, **overrides) -> ProcessedObject:
        """Process one labeled dataset part."""
        grid, pose = self.process_solid(part.solid, **overrides)
        return ProcessedObject(
            name=part.name,
            family=part.family,
            class_id=part.class_id,
            grid=grid,
            pose=pose,
        )

    # -- batches -------------------------------------------------------------

    def _reduced_resolution(self) -> int:
        """The resolution the last retry-ladder rung falls back to."""
        return max(self.resolution // 2, 2 * self.margin + 2, 4)

    def _retry_ladder(self, kind: str) -> list[tuple[str | None, dict]]:
        """The bounded attempt ladder for ``on_error="retry"``.

        Rung 1 is the normal pipeline.  Rung 2 re-voxelizes with
        conservative supersampling (solids; the mesh rasterizer is
        already supersampled, so meshes get a plain re-read/retry which
        clears transient I/O faults).  Rung 3 drops to a reduced raster
        resolution as a last resort.
        """
        reduced = self._reduced_resolution()
        if kind == "solid":
            ladder: list[tuple[str | None, dict]] = [
                (None, {}),
                ("supersample", {"supersample": 4}),
            ]
        else:
            ladder = [(None, {}), ("retry", {})]
        if reduced < self.resolution:
            ladder.append(("reduced-resolution", {"resolution": reduced}))
        return ladder

    def _ingest_one(
        self, name: str, build, kind: str, on_error: str, source: str | None = None
    ) -> IngestReport:
        """Run *build* under the *on_error* policy: its one-object report.

        ``build(**overrides)`` must return a :class:`ProcessedObject`.
        With ``on_error="raise"`` the first exception propagates
        unchanged; ``"skip"`` records a single failed attempt;
        ``"retry"`` walks the bounded fallback ladder before recording
        a failure.
        """
        ladder = self._retry_ladder(kind) if on_error == "retry" else [(None, {})]
        report = IngestReport(on_error)
        start = time.perf_counter()
        last_exc: BaseException | None = None
        with span("ingest.object", object=name, kind=kind):
            for attempt, (fallback, overrides) in enumerate(ladder, 1):
                try:
                    obj = build(**overrides)
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    last_exc = exc
                    continue
                report.record_success(
                    obj,
                    attempts=attempt,
                    seconds=time.perf_counter() - start,
                    fallback=fallback,
                    source=source,
                )
                return report
        assert last_exc is not None
        report.record_failure(
            name,
            last_exc,
            attempts=len(ladder),
            seconds=time.perf_counter() - start,
            source=source,
        )
        return report

    def process_parts(
        self,
        parts: list[CADPart],
        on_error: str = "raise",
        n_jobs: int | None = None,
    ) -> IngestReport:
        """Process a whole dataset (deterministic, order-preserving).

        Parameters
        ----------
        parts:
            The labeled parts to push through the pipeline.
        on_error:
            Failure policy. ``"raise"`` (default) propagates the first
            failure unchanged; ``"skip"`` isolates failures to the part
            that caused them and records them in the report; ``"retry"``
            additionally walks a bounded fallback ladder (supersampled
            re-voxelization, then reduced resolution) before giving up
            on a part.
        n_jobs:
            Worker processes (``None``/``0`` = serial, negative = all
            cores) from the shared pool of :mod:`repro.parallel`.  Each
            part is voxelized and normalized by one task under the same
            per-object policy/retry ladder, in this process or in a
            worker; single-part reports are merged back in input order,
            so results — including the records and the first-failure
            semantics of ``"raise"`` — do not depend on the worker count.

        Returns
        -------
        IngestReport
            A sequence of the surviving :class:`ProcessedObject`
            instances (drop-in compatible with the previous ``list``
            return) carrying per-object :class:`IngestRecord` entries.
        """
        if on_error not in ON_ERROR_POLICIES:
            raise IngestError(
                f"unknown on_error policy {on_error!r}; choose from {ON_ERROR_POLICIES}"
            )
        from repro.parallel import pool_map, resolve_n_jobs

        jobs = resolve_n_jobs(n_jobs)
        with span("ingest.process_parts", n=len(parts), jobs=jobs, policy=on_error):
            tasks = [(self, part, on_error) for part in parts]
            report = _merge_reports(on_error, pool_map(_ingest_part_task, tasks, jobs))
        _record_ingest_report(report)
        return report

    def process_mesh_directory(
        self,
        directory: str | Path,
        on_error: str = "skip",
        fill: bool = True,
        suffixes: tuple[str, ...] = MESH_SUFFIXES,
        n_jobs: int | None = None,
    ) -> IngestReport:
        """Ingest every mesh file in *directory* (sorted, deterministic).

        Files are matched case-insensitively against *suffixes*; each
        becomes a :class:`ProcessedObject` named after its stem, family
        ``"mesh"``, and a class id equal to its position in the sorted
        file list (stable even when other files fail).  The default
        policy is ``"skip"`` — real mesh collections routinely contain a
        few malformed exports, and one bad file must not abort the
        batch.  ``n_jobs`` parallelizes over files exactly like
        :meth:`process_parts` does over parts.
        """
        if on_error not in ON_ERROR_POLICIES:
            raise IngestError(
                f"unknown on_error policy {on_error!r}; choose from {ON_ERROR_POLICIES}"
            )
        from repro.parallel import pool_map, resolve_n_jobs

        directory = Path(directory)
        try:
            files = sorted(
                p for p in directory.iterdir() if p.suffix.lower() in suffixes
            )
        except OSError as exc:
            raise StorageError(f"cannot list mesh directory {directory}: {exc}") from exc
        jobs = resolve_n_jobs(n_jobs)
        with span(
            "ingest.process_meshes", n=len(files), jobs=jobs, policy=on_error
        ):
            tasks = [
                (self, path, class_id, on_error, fill)
                for class_id, path in enumerate(files)
            ]
            report = _merge_reports(on_error, pool_map(_ingest_mesh_task, tasks, jobs))
        _record_ingest_report(report)
        return report


# -- pool_map work units -------------------------------------------------------
#
# Module-level (picklable) single-object tasks: each runs the full
# per-object pipeline — voxelization included — under the caller's
# on_error policy and returns a one-object IngestReport.  Under
# on_error="raise" the exception propagates out of the task; pool_map
# keeps submission order, so the *earliest* failing object aborts the
# batch at every worker count.


def _ingest_part_task(task) -> IngestReport:
    pipeline, part, on_error = task
    return pipeline._ingest_one(
        part.name, lambda **ov: pipeline.process_part(part, **ov), "solid", on_error
    )


def _ingest_mesh_task(task) -> IngestReport:
    pipeline, path, class_id, on_error, fill = task
    from repro.io import read_mesh

    def build(**overrides):
        mesh = read_mesh(path)
        grid, pose = pipeline.process_mesh(mesh, fill=fill, **overrides)
        return ProcessedObject(
            name=path.stem,
            family="mesh",
            class_id=class_id,
            grid=grid,
            pose=pose,
        )

    return pipeline._ingest_one(path.stem, build, "mesh", on_error, source=str(path))


def _record_ingest_report(report: IngestReport) -> None:
    """Fold one batch-ingest outcome into the metrics registry.

    Counted exactly once per top-level batch (never inside workers, so
    parallel runs can't double count), which makes serial and ``--jobs``
    totals identical for the same inputs.
    """
    reg = registry()
    if not reg.enabled:
        return
    reg.counter("ingest.objects_ok").inc(len(report.objects))
    reg.counter("ingest.objects_failed").inc(len(report.failures))
    reg.counter("ingest.attempts").inc(sum(rec.attempts for rec in report.records))
    emit(
        "ingest",
        ok=len(report.objects),
        failed=len(report.failures),
        policy=report.policy,
        seconds=report.total_seconds,
    )


def _merge_reports(on_error: str, partials: list[IngestReport]) -> IngestReport:
    """Concatenate single-object reports in submission order."""
    report = IngestReport(on_error)
    for partial in partials:
        report.objects.extend(partial.objects)
        report.records.extend(partial.records)
    return report

"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch every failure mode of this package with a single ``except`` clause
while still being able to distinguish finer-grained conditions.
"""

from __future__ import annotations

import functools


class ReproError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


class GeometryError(ReproError):
    """A mesh or solid is malformed (degenerate triangles, empty solids, ...)."""


class VoxelizationError(ReproError):
    """Voxelization failed or was given inconsistent grid parameters."""


class FeatureError(ReproError):
    """A feature model received input it cannot handle."""


class DistanceError(ReproError):
    """A distance function was used with incompatible operands."""


class IndexError_(ReproError):
    """An index structure was used inconsistently (not to be confused
    with the built-in :class:`IndexError`)."""


class InvariantError(ReproError):
    """Structures that must mirror each other disagree (object store,
    stored centroids, spatial index, sketch tier, refinement engine)."""


class QueryError(ReproError):
    """A similarity query was malformed (k <= 0, negative range, ...)."""


class DatasetError(ReproError):
    """A dataset generator received invalid parameters."""


class StorageError(ReproError):
    """Persistence layer failure (unknown format, corrupt file, ...)."""


class SnapshotIntegrityError(StorageError):
    """A snapshot archive failed its integrity check.

    Carries enough context for recovery-ladder logs to be actionable:
    which archive *member* (array name) failed, and a human
    classification of what that member holds (index node table, object
    store column, ...).
    """

    def __init__(self, path, member: str, detail: str, *, kind: str | None = None):
        self.path = str(path)
        self.member = member
        self.detail = detail
        self.kind = kind or f"archive member {member!r}"
        super().__init__(f"{path}: corrupt {self.kind}: {detail}")

    def __reduce__(self):
        # The default rebuilds from ``self.args`` (the one message), which
        # this ``__init__`` cannot take: a pool worker's error would reach
        # the parent as a broken pool instead.
        return (
            functools.partial(type(self), kind=self.kind),
            (self.path, self.member, self.detail),
        )


class WALError(StorageError):
    """The write-ahead log is unreadable or structurally inconsistent."""


class LockTimeout(ReproError):
    """An ``RWLock.read``/``RWLock.write`` acquisition timed out."""


class IngestError(ReproError):
    """Batch ingestion failed as a whole (bad policy, nothing ingested)."""

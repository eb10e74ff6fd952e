"""Content-addressed on-disk cache for extracted features.

Feature extraction is a pure function of the voxel grid and the model
parameters, so its results can be reused across runs, processes and
datasets.  Each feature array is stored in its own file named by the
SHA-256 of the packed occupancy bits plus a canonical token of the
model's class, name and constructor parameters — mutating a single
voxel, or changing any model parameter, changes the key, so stale hits
are impossible by construction and no invalidation logic is needed.

The cache lives under ``$REPRO_CACHE_DIR/features`` (default
``.repro_cache/features``); writes are atomic (unique temp file +
``os.replace``, the same pattern the database snapshots use), corrupt or
truncated entries read as misses and are re-extracted, and hit/miss
counters accumulate for ``repro info``.

Counter persistence is race-free under concurrent ``--jobs`` ingests:
each :meth:`FeatureCache.flush_stats` writes its counters as an
*atomic, uniquely named delta file* under ``stats.d/`` instead of
read-modify-writing a shared ``stats.json`` (which could drop
increments when two processes raced).  Readers sum the delta files plus
the compacted ``stats.json``; compaction folds deltas into
``stats.json`` under an ``O_EXCL`` lock and records the folded file
names so a reader racing the compactor never counts a delta twice.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.obs import counter
from repro.voxel.grid import VoxelGrid

#: Version tag mixed into every key; bump to invalidate all entries when
#: the feature encoding itself changes incompatibly.
CACHE_KEY_VERSION = b"repro-feature-v1\0"


def default_cache_root() -> Path:
    """Where feature cache entries live (under ``REPRO_CACHE_DIR``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache")) / "features"


def model_token(model) -> str:
    """A canonical string identifying a model's class and parameters.

    Combines the class name, the model's ``name`` property and the
    sorted constructor attributes, so two instances produce the same
    token exactly when they would extract identical features.
    """
    try:
        params = sorted(vars(model).items())
    except TypeError:  # __slots__ or exotic models: fall back to repr
        params = [("repr", repr(model))]
    name = getattr(model, "name", type(model).__name__)
    return f"{type(model).__name__}|{name}|{params!r}"


def feature_cache_key(grid: VoxelGrid, model) -> str:
    """SHA-256 content key of (occupancy bits, resolution, model)."""
    digest = hashlib.sha256()
    digest.update(CACHE_KEY_VERSION)
    digest.update(int(grid.resolution).to_bytes(4, "little"))
    digest.update(np.packbits(grid.occupancy).tobytes())
    digest.update(model_token(model).encode("utf-8"))
    return digest.hexdigest()


class FeatureCache:
    """Per-object feature cache with hit/miss accounting.

    Parameters
    ----------
    root:
        Cache directory (default: :func:`default_cache_root`, resolved
        lazily so tests can repoint ``REPRO_CACHE_DIR`` per instance).
    enabled:
        A disabled cache is a no-op on both lookup and store, which lets
        callers thread one code path for ``--no-cache``.
    """

    def __init__(self, root: str | Path | None = None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_cache_root()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        """Entry location (two-level fan-out keeps directories small)."""
        return self.root / key[:2] / f"{key}.npy"

    def get(self, grid: VoxelGrid, model) -> np.ndarray | None:
        """The cached feature array, or ``None`` on a miss."""
        if not self.enabled:
            return None
        path = self.path_for(feature_cache_key(grid, model))
        if path.exists():
            try:
                feature = np.load(path, allow_pickle=False)
            except (OSError, ValueError):
                # Corrupt/truncated entry (e.g. a crashed writer on a
                # filesystem without atomic replace): treat as a miss
                # and let the fresh put() below repair it.
                pass
            else:
                self.hits += 1
                counter("cache.hits").inc()
                return feature
        self.misses += 1
        counter("cache.misses").inc()
        return None

    def get_or_extract(self, grid: VoxelGrid, model) -> np.ndarray:
        """The feature array for *grid*, extracting (and caching) on miss.

        The single-object flavour of ``extract_many(cache=...)`` — the
        mutable database's ``add`` path goes through here so interactive
        ingestion shares the same content-addressed entries as batch
        runs.
        """
        feature = self.get(grid, model)
        if feature is None:
            feature = np.asarray(model.extract(grid))
            self.put(grid, model, feature)
        return feature

    def put(self, grid: VoxelGrid, model, feature: np.ndarray) -> None:
        """Store *feature* atomically (unique temp file + replace)."""
        if not self.enabled:
            return
        path = self.path_for(feature_cache_key(grid, model))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, np.asarray(feature), allow_pickle=False)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- statistics ----------------------------------------------------------

    def flush_stats(self) -> None:
        """Persist this instance's counters as an atomic delta file.

        Concurrency-safe by construction: every flush creates its own
        uniquely named file under ``stats.d/`` (temp file +
        ``os.replace``), so concurrent ``--jobs`` ingests can never lose
        each other's increments the way a shared read-modify-write of
        ``stats.json`` could.  Best-effort: a read-only or contended
        cache directory must not fail the extraction that produced the
        features.
        """
        if not self.enabled or (self.hits == 0 and self.misses == 0):
            return
        deltas_dir = self.root / STATS_DELTA_DIR
        try:
            deltas_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=deltas_dir, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump({"hits": self.hits, "misses": self.misses}, handle)
            os.replace(tmp, Path(tmp).with_suffix(".json"))
        except OSError:
            return
        self.hits = 0
        self.misses = 0


#: Delta files live here (under the cache root); each is one flush.
STATS_DELTA_DIR = "stats.d"

#: A compaction lock older than this is assumed abandoned and broken.
STATS_LOCK_TIMEOUT = 60.0


def _load_json(path: Path) -> dict | None:
    try:
        with open(path) as handle:
            data = json.load(handle)
        return data if isinstance(data, dict) else None
    except (OSError, ValueError):
        return None


def _read_stats(base: Path) -> dict:
    """Exact cumulative totals: compacted ``stats.json`` + delta files.

    Deltas are scanned *before* ``stats.json`` is read, and any delta
    named in its ``folded`` list is excluded — so a reader racing a
    compactor counts every increment exactly once regardless of
    interleaving (the delta is either still pending, or folded and
    skipped).
    """
    deltas: dict[str, dict] = {}
    for path in sorted((base / STATS_DELTA_DIR).glob("*.json")):
        data = _load_json(path)
        if data is not None:
            deltas[path.name] = data
    main = _load_json(base / "stats.json") or {}
    folded = set(main.get("folded", ()))
    totals = {"hits": 0, "misses": 0}
    for key in totals:
        try:
            totals[key] = int(main.get(key, 0))
        except (TypeError, ValueError):
            totals[key] = 0
    for name, data in deltas.items():
        if name in folded:
            continue
        for key in totals:
            try:
                totals[key] += int(data.get(key, 0))
            except (TypeError, ValueError):
                continue
    return totals


def _compact_stats(base: Path) -> None:
    """Fold delta files into ``stats.json`` (best-effort, lock-guarded).

    Holds an ``O_CREAT | O_EXCL`` lock so at most one compactor runs;
    the new ``stats.json`` lists the folded delta names *before* the
    files are deleted, preserving the exactly-once read invariant of
    :func:`_read_stats`.  Every failure mode simply leaves the deltas
    in place for the next attempt.
    """
    deltas_dir = base / STATS_DELTA_DIR
    if not deltas_dir.is_dir():
        return
    lock = base / "stats.lock"
    try:
        if lock.exists() and time.time() - lock.stat().st_mtime > STATS_LOCK_TIMEOUT:
            lock.unlink()
    except OSError:
        pass
    try:
        lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return  # another compactor is running
    try:
        main = _load_json(base / "stats.json") or {}
        folded = set(main.get("folded", ()))
        totals = {
            "hits": int(main.get("hits", 0) or 0),
            "misses": int(main.get("misses", 0) or 0),
        }
        consumed: list[str] = []
        for path in sorted(deltas_dir.glob("*.json")):
            if path.name in folded:
                consumed.append(path.name)  # folded earlier; just delete
                continue
            data = _load_json(path)
            if data is None:
                continue
            totals["hits"] += int(data.get("hits", 0) or 0)
            totals["misses"] += int(data.get("misses", 0) or 0)
            consumed.append(path.name)
        if not consumed:
            return
        totals["folded"] = consumed
        fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(totals, handle)
        os.replace(tmp, base / "stats.json")
        for name in consumed:
            try:
                (deltas_dir / name).unlink()
            except OSError:
                pass
    except OSError:
        return
    finally:
        os.close(lock_fd)
        try:
            lock.unlink()
        except OSError:
            pass


def cache_info(root: str | Path | None = None) -> dict:
    """Summary of the on-disk cache for ``repro info``.

    Returns entry count, total bytes and the cumulative hit/miss
    counters that :meth:`FeatureCache.flush_stats` maintains.  Reading
    also opportunistically compacts pending delta files into
    ``stats.json`` (lock-guarded, exact under races).
    """
    base = Path(root) if root is not None else default_cache_root()
    entries = 0
    size = 0
    if base.is_dir():
        for path in base.rglob("*.npy"):
            try:
                size += path.stat().st_size
            except OSError:
                continue
            entries += 1
    _compact_stats(base)
    totals = _read_stats(base)
    return {
        "root": str(base),
        "entries": entries,
        "bytes": size,
        "hits": totals["hits"],
        "misses": totals["misses"],
    }

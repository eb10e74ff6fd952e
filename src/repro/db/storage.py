"""The storage layer: every on-disk layout of the similarity database.

The one module that knows how a database sits on disk.
:class:`~repro.db.core.SimilarityDatabase` and
:class:`~repro.db.sharded.ShardedSimilarityDatabase` keep mutation,
locking and queries and call in here, locks already held, to write,
open, recover and verify.  :func:`layout_of` decides what a path holds:

* a *snapshot file*: one archive of :mod:`repro.db.archive`, ``.npz``
  or dense, every member CRC-checked on every open
  (:func:`snapshot_state`: the settings record in the meta block, the
  engine's rows, its sketch codes with the sketcher's projection and —
  only when an object carries one — the payloads as arrays; no index,
  since every query ranks the engine's centroid column);
* a *durable directory* (:class:`repro.wal.DurableLayout`): opening one
  runs the recovery ladder (:func:`recover`);
* a *sharded directory*: the ``sharded.json`` manifest beside one plain
  layout per shard (:func:`shard_path`), written, opened and verified by
  the same per-file functions as a plain layout.

**The settings record.**  :func:`settings` writes it — ``durable.json``
holds it as is, a snapshot's meta block spells ``sketch`` as
``sketch_enabled`` and stores the effective ``omega``, the manifest
keeps ``capacity`` and ``resolution``.  :func:`_checked` reads every
one of them: a JSON object, its required keys present, every key it
holds passing :data:`_CHECKS`, else a
:class:`~repro.exceptions.StorageError` naming the file and the key.
Keys no check knows are ignored: an old ``solver``, and the
``backend``, ``index_capacity`` and ``index_meta`` of a layout written
while snapshots carried an index (whose ``index__*`` members are still
CRC-checked by :func:`~repro.db.archive.read_archive`, but never
parsed).

**Locks.**  Storage takes none of its own: ``save`` runs under the
database's read lock, ``checkpoint`` under its write lock, a sharded
``save`` under every shard's read lock (ascending); a database being
opened or recovered is nobody else's yet.

**Crash points** a checkpoint meets, in order: ``after-wal-append`` (the
checkpoint record), ``mid-snapshot-write`` (inside
:func:`~repro.db.archive.write_archive`, before the rename),
``mid-checkpoint-swap`` (new WAL segment open, ``CURRENT`` not yet
republished); ``between-shard-checkpoints`` sits between two shards of
a sharded one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.approx import SetSketcher
from repro.core.batch import PackedSets
from repro.core.queries import FilterRefineEngine
from repro.db.archive import is_dense_archive, read_archive, write_archive
from repro.exceptions import DistanceError, QueryError, ReproError, StorageError
from repro.obs import emit, registry, span
from repro.testing.faults import crash_point
from repro.wal import (
    CONFIG_NAME,
    DurableLayout,
    WriteAheadLog,
    replace_synced,
    scan_segment,
    verify_segment,
)

DB_FORMAT = "repro-similarity-db"
DB_VERSION = 1
SHARDED_FORMAT = "repro-sharded-db"
SHARDED_VERSION = 1
MANIFEST_NAME = "sharded.json"

#: Default number of snapshot generations (and their WAL segments) a
#: durable database keeps on disk for the recovery ladder's fallback.
DEFAULT_KEEP_GENERATIONS = 2

#: The most bytes one object's payload may encode to as JSON.
MAX_PAYLOAD_BYTES = 1024

#: The object store's four snapshot arrays, in the order of
#: :meth:`FilterRefineEngine.ragged`: ascending oids, row offsets, the
#: unpadded sets back to back, one extended centroid per set.
_SET_ARRAYS = ("set_oids", "set_row_offsets", "set_data", "centroids")

#: The keys each kind of stored record must carry.
_REQUIRED = {
    "snapshot": ("capacity", "dimension", "omega", "block_size", "db_version"),
    "durable config": ("capacity", "omega", "block_size"),
    "manifest": ("format", "version", "shards", "durable"),
}


def _int(low: int):
    return lambda value: type(value) is int and value >= low


def _maybe(check):
    return lambda value: value is None or check(value)


def _of(*kinds: type):
    return lambda value: type(value) in kinds


def _omega(value) -> bool:
    """A persisted ω: a list of numbers inside the magnitude domain."""
    from repro.db.core import MAGNITUDE_BOUND  # core imports this module

    return type(value) is list and all(
        type(v) in (int, float) and abs(v) <= MAGNITUDE_BOUND for v in value
    )


#: The one check of every settings key a stored record may carry.
_CHECKS = {
    "capacity": _int(1),
    "omega": _maybe(_omega),
    "dimension": _maybe(_int(1)),
    "block_size": _int(1),
    "db_version": _int(0),
    "resolution": _maybe(_int(2)),
    "sketch": _of(bool),
    "sketch_enabled": _of(bool),
    "sketch_meta": _maybe(_of(dict)),
    "sketch_params": _maybe(_of(dict)),
    "fsync": _of(str, int, bool),
    "keep_generations": _int(1),
    "source": _maybe(_of(str)),
    "shards": _int(1),
    "durable": _of(bool),
}


@dataclass
class RecoveryReport:
    """What the recovery ladder actually did for one ``load()``.

    ``fallbacks`` counts snapshot generations that failed integrity and
    were skipped; ``degraded`` is True whenever recovery used anything
    but the happy path (newest snapshot + clean tail replay).
    """

    requested_generation: int
    used_generation: int = -1
    fallbacks: int = 0
    replayed_records: int = 0
    torn_segments: list[str] = field(default_factory=list)
    missing_segments: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    source_rebuild: bool = False

    @property
    def degraded(self) -> bool:
        return bool(
            self.fallbacks
            or self.source_rebuild
            or self.torn_segments
            or self.missing_segments
        )


# -- layouts and the settings record --------------------------------------------


def layout_of(path) -> str:
    """What *path* holds: ``"sharded"`` (a directory with a manifest),
    ``"durable"`` (any other directory), ``"dense"`` (a file with the
    dense container's magic) or ``"npz"`` (anything else — the ``.npz``
    reader rejects what is not one, typed)."""
    path = Path(path)
    if path.is_dir():
        return "sharded" if (path / MANIFEST_NAME).exists() else "durable"
    return "dense" if is_dense_archive(path) else "npz"


def shard_path(root, position: int, durable: bool) -> Path:
    """Where shard *position* of the sharded layout at *root* lives."""
    name = f"shard-{position:05d}"
    return Path(root) / (name if durable else f"{name}.npz")


def settings(db) -> dict:
    """The settings record of *db*: every constructor setting a layout
    stores.  Sketch parameters come from the sketcher once there is one
    (a reopened database was never given constructor arguments)."""
    sketch_params = db._sketch_params
    if db._sketcher is not None:
        sketch_params = db._sketcher.params()
        del sketch_params["dims"]
    return {
        "capacity": db.capacity,
        "omega": None if db._omega_arg is None else db._omega_arg.tolist(),
        "block_size": db.block_size,
        "resolution": getattr(db.pipeline, "resolution", None),
        "sketch": db.sketch_enabled,
        "sketch_params": sketch_params or None,
    }


def write_manifest(db, root: Path, *, durable: bool) -> None:
    """Atomically and durably write the ``sharded.json`` of the sharded
    *db* at *root*, whose shards are WAL directories if *durable*, else
    snapshot files: the file is synced before the rename, the directory
    after it."""
    payload = {
        "format": SHARDED_FORMAT,
        "version": SHARDED_VERSION,
        "shards": db.n_shards,
        "routing": "crc32-mod",
        "durable": durable,
        "capacity": db.capacity,
        "resolution": getattr(db.pipeline, "resolution", None),
    }
    replace_synced(root / MANIFEST_NAME, json.dumps(payload, indent=2) + "\n")


def _checked(path, record, what: str, **expected) -> dict:
    """The one settings reader: *record*, the parsed *what* at *path*,
    if it is a JSON object that holds every key ``_REQUIRED[what]`` names
    and the *expected* values, and every key passes :data:`_CHECKS`."""
    if not isinstance(record, dict):
        raise StorageError(f"{path}: malformed {what}: not a JSON object")
    noun = "meta key" if what == "snapshot" else "key"
    for key in _REQUIRED[what]:
        if key not in record:
            raise StorageError(f"{path}: malformed {what}: {noun} {key!r} is missing")
    for key, value in record.items():
        fails = key in _CHECKS and not _CHECKS[key](value)
        if fails or expected.get(key, value) != value:
            raise StorageError(f"{path}: malformed {what}: {noun} {key!r} holds {value!r}")
    return record


def _pipeline(pipeline, record: dict):
    """*pipeline*, or else the one the record's ``resolution`` names."""
    if pipeline is None and record.get("resolution"):
        from repro.pipeline import Pipeline

        return Pipeline(resolution=record["resolution"])
    return pipeline


def _empty_database(path, what, record, *, sketch_key="sketch", pipeline=None, **options):
    """An empty, non-durable database with the settings of a checked
    *record*, whose flag for the sketch tier is *sketch_key*."""
    from repro.db.core import SimilarityDatabase  # core imports this module

    try:
        return SimilarityDatabase(
            record["capacity"],
            omega=record["omega"],
            block_size=record["block_size"],
            pipeline=_pipeline(pipeline, record),
            sketch=record.get(sketch_key, True),
            sketch_params=record.get("sketch_params"),
            **options,
        )
    except QueryError as exc:
        raise StorageError(f"{path}: malformed {what}: {exc}") from exc


def empty_like(db, *, lock_timeout=None):
    """An empty in-memory database configured like *db*: its settings
    record, read back."""
    return _empty_database("<live>", "settings", settings(db), lock_timeout=lock_timeout)


def _durable_config(layout: DurableLayout) -> dict:
    return _checked(layout.config_path, layout.read_config(), "durable config")


def read_manifest(root) -> dict:
    """The checked ``sharded.json`` of the sharded layout at *root*."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise StorageError(f"{root} is not a sharded database (missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise StorageError(f"{path}: unreadable manifest: {exc}") from exc
    return _checked(
        path, manifest, "manifest", format=SHARDED_FORMAT, version=SHARDED_VERSION
    )


# -- snapshot files -------------------------------------------------------------


def snapshot_state(db) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta, arrays) archive form of *db* (caller holds either lock
    side): the settings record, the object store's columns, the sketch
    codes and the payloads."""
    engine = db._engine
    if engine is None:
        no_rows = np.empty((0, db.dimension or 0))
        stored = (db._oids(), np.zeros(1, dtype=np.int64), no_rows, no_rows)
    else:
        stored = engine.ragged()
    arrays = dict(zip(_SET_ARRAYS, stored))
    sketch_meta = None
    if db.sketch_enabled and db._sketcher is not None:
        # The projection matrix travels with the data, content-addressed
        # by its digest, so sketches stay bit-reproducible in every
        # process that loads this snapshot.
        sketch_meta = {**db._sketcher.params(), "digest": db._sketcher.digest()}
        arrays["sketch__proj"] = np.ascontiguousarray(
            db._sketcher.projection, dtype=np.float64
        )
        # The codes in ragged()'s ascending-oid order, under the oids
        # again: the layout the archive has always had.
        arrays["sketch__oids"] = stored[0]
        arrays["sketch__codes"] = (
            np.zeros((0, db._sketcher.words), dtype=np.uint64)
            if engine is None
            else engine.codes[np.argsort(engine.oids)]
        )
    if db._payloads:
        # Written only when there is one: a payload-free snapshot is the
        # archive it was before payloads existed.
        arrays["payloads"] = _encode_payloads(db._payloads)
    record = settings(db)
    meta = {
        "format": DB_FORMAT,
        "version": DB_VERSION,
        "capacity": record["capacity"],
        "dimension": db.dimension,
        "omega": None if db.omega is None else db.omega.tolist(),
        "block_size": record["block_size"],
        "db_version": db._version,
        "resolution": record["resolution"],
        "sketch_enabled": record["sketch"],
        "sketch_meta": sketch_meta,
    }
    if record["sketch"] and sketch_meta is None and record["sketch_params"]:
        # No object yet, so no sketcher to carry the parameters: the
        # reopened database must still sketch its first object with them.
        meta["sketch_params"] = record["sketch_params"]
    return meta, arrays


def check_payload(payload) -> dict | None:
    """The one payload check of every database entry point that takes
    one (plain, sharded, replay, snapshot): ``None``, or a dict of string
    keys and string values that encodes to at most
    :data:`MAX_PAYLOAD_BYTES` of JSON, else :class:`QueryError`, before
    any lock or log record.  Returns an owned copy."""
    if payload is None:
        return None
    if not isinstance(payload, dict) or not all(
        isinstance(key, str) and isinstance(value, str) for key, value in payload.items()
    ):
        raise QueryError(f"payload must map strings to strings, got {payload!r:.80}")
    if len(json.dumps(payload)) > MAX_PAYLOAD_BYTES:  # ASCII: one byte a char
        raise QueryError(f"payload encodes to more than {MAX_PAYLOAD_BYTES} bytes")
    return dict(payload)


def _encode_payloads(payloads: dict[int, dict]) -> np.ndarray:
    """The ``payloads`` member: ``[[oid, payload], ...]`` in ascending
    oid, as UTF-8 JSON bytes."""
    rows = [[oid, payloads[oid]] for oid in sorted(payloads)]
    blob = json.dumps(rows, sort_keys=True).encode("utf-8")
    return np.frombuffer(blob, dtype=np.uint8)


def _decode_payloads(member: np.ndarray, oids: np.ndarray) -> dict[int, dict]:
    """The checked payloads of a ``payloads`` member, which must name
    stored *oids* in ascending order; ``ValueError`` / ``QueryError``
    for anything else."""
    if member.dtype != np.uint8 or member.ndim != 1:
        raise ValueError(f"not a byte string but {member.dtype} {member.shape}")
    rows = json.loads(member.tobytes().decode("utf-8"))
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == 2 and type(row[0]) is int for row in rows
    ):
        raise ValueError("not a JSON list of [oid, payload] pairs")
    ids = [oid for oid, _ in rows]
    if ids != sorted(set(ids)) or not set(ids) <= set(oids.tolist()):
        raise ValueError("its oids are not stored ids in ascending order")
    return {oid: check_payload(payload) for oid, payload in rows}


def write_snapshot(db, path, *, dense: bool) -> Path:
    """Write *db* as one snapshot file (caller holds either lock side)."""
    return write_archive(path, *snapshot_state(db), dense=dense)


def save(db, path, *, dense: bool) -> Path:
    """Save *db* as a snapshot file (caller holds the read lock)."""
    with span("db.snapshot.save", force=True) as sp:
        result = write_snapshot(db, path, dense=dense)
        sp.set(objects=len(db))
    emit("db.snapshot", op="save", objects=len(db), path=str(path))
    return result


def _malformed(path, what) -> StorageError:
    return StorageError(f"{path}: malformed snapshot: {what}")


def _snapshot_meta(path, meta: dict) -> dict:
    """*meta*, the meta block of the snapshot at *path*, checked."""
    if meta.get("version") != DB_VERSION:
        raise StorageError(
            f"{path}: unsupported database version: meta key 'version' holds "
            f"{meta.get('version')!r}"
        )
    return _checked(path, meta, "snapshot")


def _set_dimension(path, db, dimension) -> None:
    """Give the empty *db* the stored *dimension*, its ω defaulting to
    the origin."""
    db.dimension = dimension
    if dimension is not None and db.omega is None:
        db.omega = np.zeros(dimension)
    elif dimension is not None and db.omega.shape != (dimension,):
        raise _malformed(path, f"meta key 'omega' is not {dimension}-d")


def _set_columns(path, arrays: dict) -> tuple[np.ndarray, ...]:
    """The object store's arrays of a snapshot (:data:`_SET_ARRAYS`),
    checked to split ``set_data`` into one set per oid."""
    try:
        oids, offsets, rows, centroids = (arrays[name] for name in _SET_ARRAYS)
    except KeyError as exc:
        raise _malformed(path, f"array {exc} is missing") from exc
    if offsets.shape != (len(oids) + 1,) or offsets[0] or offsets[-1] != len(rows):
        raise _malformed(
            path,
            f"'set_row_offsets' does not split 'set_data' {rows.shape} "
            f"into {len(oids)} sets",
        )
    return oids, offsets, rows, centroids


def _fill_engine(path, db, oids, sizes, rows, centroids, codes) -> None:
    """Pack the sets stored back to back in *rows* (``sizes[i]`` rows
    for ``oids[i]``) into the empty *db*'s engine by one ragged scatter,
    *codes* (or ``None``) its code column."""
    if not len(oids):
        return
    try:
        db._engine = FilterRefineEngine(
            PackedSets.from_ragged(rows, sizes, db.capacity, db.omega),
            capacity=db.capacity,
            block_size=db.block_size,
            oids=oids,
            centroids=centroids,
            codes=codes,
        )
    except (DistanceError, QueryError) as exc:
        raise _malformed(path, f"{' / '.join(_SET_ARRAYS)}: {exc}") from exc


def _from_archive(path, meta: dict, arrays: dict, **options):
    """Build a database from one (meta, arrays) archive payload.

    A CRC-valid payload can still be inconsistent; it is validated here,
    once, and every fault is a :class:`StorageError` naming the file and
    the meta key or arrays.  The sets are packed into the engine by one
    ragged scatter, their sketch codes (:func:`_sketch_codes`) copied in
    as its code column.  The ``index__*`` members of an older layout are
    not read: the engine's centroid rows are what every database ranks.
    """
    _snapshot_meta(path, meta)
    db = _empty_database(path, "snapshot", meta, sketch_key="sketch_enabled", **options)
    _set_dimension(path, db, meta["dimension"])
    oids, offsets, rows, centroids = _set_columns(path, arrays)
    codes = fault = None
    try:
        codes = _sketch_codes(db, meta, arrays, oids, offsets, rows)
    except (KeyError, TypeError, ValueError, QueryError) as exc:
        fault = exc
    # A fault of the object store's own arrays is the one to name.
    _fill_engine(path, db, oids, np.diff(offsets), rows, centroids, codes)
    if fault is not None:
        raise _malformed(path, f"sketch tier: {fault}") from fault
    db._version = meta["db_version"]
    if "payloads" in arrays:
        try:
            db._payloads = _decode_payloads(arrays["payloads"], db._oids())
        except (ValueError, QueryError) as exc:
            raise _malformed(path, f"payloads: {exc}") from exc
    return db


def _sketch_codes(db, meta: dict, arrays: dict, oids, offsets, rows):
    """The empty *db*'s sketcher, set from the snapshot, and the code
    column for the sets it stores (``set_oids`` *oids*); ``None`` when
    sketching is off.

    The snapshot's ``sketch__codes`` must hold one uint64 code of the
    sketcher's width per stored set, listed under ``sketch__oids`` equal
    to ``set_oids``.  Snapshots written before the approx tier existed
    carry no ``sketch__*`` arrays; the codes are then sketched from the
    stored sets (same seed → same bits, so they are what the writing
    process *would* have persisted).
    """
    if not db.sketch_enabled:
        return None
    sketch_meta = meta.get("sketch_meta")
    if sketch_meta is not None and "sketch__codes" in arrays:
        db._sketcher = SetSketcher.from_snapshot(
            sketch_meta, np.ascontiguousarray(arrays["sketch__proj"])
        )
        codes, want = arrays["sketch__codes"], (len(oids), db._sketcher.words)
        if codes.dtype != np.uint64 or codes.shape != want:
            raise ValueError(
                f"'sketch__codes' holds {codes.dtype} {codes.shape}, not uint64 {want}"
            )
        if not np.array_equal(arrays["sketch__oids"], oids):
            raise ValueError("'sketch__oids' are not 'set_oids'")
        return codes
    db._ensure_sketcher()
    if db._sketcher is None or not len(oids):
        return None
    sets = np.split(rows, offsets[1:-1])
    return np.stack([db._sketcher.sketch(arr) for arr in sets])


def open_snapshot(path, **options):
    """Open one snapshot file with zero rebuild work, every member
    CRC-checked; a dense one is mapped, and the engine packs its own
    copy of the arrays.  A save without ``dense=`` keeps the container
    the file was read from."""
    with span("db.snapshot.load", force=True) as sp:
        meta, arrays, dense = read_archive(path, DB_FORMAT)
        db = _from_archive(path, meta, arrays, **options)
        db._snapshot_dense = dense
        sp.set(objects=len(db))
    emit("db.snapshot", op="load", objects=len(db), path=str(path))
    return db


# -- durable directories --------------------------------------------------------


def refuse_existing(path) -> None:
    """Refuse to create a database in the directory *path* when it
    already holds one, plain durable or sharded, so that neither layout
    is ever laid over the other.  Called before anything is written."""
    root = Path(path)
    if (root / MANIFEST_NAME).exists():
        raise StorageError(
            f"{root} already holds a sharded database; "
            "recover it with ShardedSimilarityDatabase.load()"
        )
    if (root / CONFIG_NAME).exists() or DurableLayout(root).exists():
        raise StorageError(
            f"{root} already holds a durable database; "
            "recover it with SimilarityDatabase.load()"
        )


def create_durable(db, path) -> None:
    """Lay out a new durable directory for the empty *db*: its
    ``durable.json``, ``CURRENT`` at generation 0 and the live WAL."""
    refuse_existing(path)
    layout = DurableLayout(path)
    config = settings(db)
    config["fsync"] = db.fsync if isinstance(db.fsync, (str, int)) else "always"
    config["keep_generations"] = db.keep_generations
    config["source"] = db.source
    layout.write_config(config)
    layout.publish(0)
    db._layout = layout
    db._wal = WriteAheadLog(layout.wal_path(0), generation=0, fsync=db.fsync, fresh=True)


def checkpoint(db) -> Path:
    """Publish snapshot generation G+1 of the durable *db* and rotate its
    WAL (caller holds the write lock, nothing staged beside the core).

    Write ``snapshot-(G+1)`` atomically, seal ``wal-G`` with a checkpoint
    record, open ``wal-(G+1)``, then atomically republish ``CURRENT``: a
    crash anywhere leaves generation G fully recoverable or G+1
    published; old generations are retired only after publication.
    """
    layout = db._layout
    with span("db.checkpoint", force=True) as sp:
        next_generation = db._generation + 1
        snapshot_path = layout.snapshot_path(next_generation)
        write_snapshot(db, snapshot_path, dense=False)
        db._wal.append("checkpoint", next_generation=next_generation)
        db._wal.sync()
        db._wal.close()
        new_wal = WriteAheadLog(
            layout.wal_path(next_generation),
            generation=next_generation,
            fsync=db.fsync,
            fresh=True,
        )
        crash_point("mid-checkpoint-swap")
        layout.publish(next_generation)
        db._wal = new_wal
        db._generation = next_generation
        retired = layout.retire(
            published=next_generation, keep_generations=db.keep_generations
        )
        registry().counter("db.checkpoints").inc()
        sp.set(objects=len(db), generation=next_generation)
    emit(
        "db.checkpoint",
        generation=next_generation,
        objects=len(db),
        retired=len(retired),
        path=str(snapshot_path),
    )
    return snapshot_path


def _apply_replay(db, record: dict) -> None:
    """Apply one WAL record idempotently (recovery only).

    Idempotency makes chained/partial replays safe: re-adding an
    identical set is a no-op, an ``add`` over a different survivor
    degrades to ``update``, removing an absent oid is a no-op.  An add
    leaves the object with its record's payload either way; an update
    record carries none and keeps the stored one.
    """
    op = record["op"]
    if op == "checkpoint":
        return
    if op == "compact":
        # Logged by a release that had compact(), which changed nothing
        # but the version; the database under recovery is unshared.
        if db.dimension is not None:
            db._version += 1
        return
    oid = int(record["oid"])
    if op == "remove":
        db.remove(oid)
        return
    arr, payload = record["array"], record.get("payload")
    if oid not in db:
        db.add(oid, arr, payload)
        return
    if not np.array_equal(db._engine.get(oid), arr):
        db.update(oid, arr)
    if op != "update":  # the database under recovery is unshared
        db._payloads.pop(oid, None)
        if payload is not None:
            db._payloads[oid] = check_payload(payload)


def _replay_chain(db, layout, start: int, published: int, report) -> None:
    """Replay WAL segments ``start..published`` onto *db* in order."""
    db._replaying = True
    try:
        for generation in range(start, published + 1):
            wal_path = layout.wal_path(generation)
            if not wal_path.exists():
                report.missing_segments.append(wal_path.name)
                continue
            scan = scan_segment(wal_path)
            if scan.torn:
                report.torn_segments.append(wal_path.name)
            for record in scan.records:
                _apply_replay(db, record)
                if record["op"] != "checkpoint":
                    report.replayed_records += 1
    finally:
        db._replaying = False


def recover(root, **options):
    """Open a durable directory: the recovery ladder.

    Rung 1: newest published snapshot + its WAL tail.
    Rung 2..: previous generations, each with a longer chained replay
    (``wal-g`` holds exactly the mutations between snapshot *g* and
    snapshot *g+1*).
    Rung 0: an empty database + the full retained WAL chain.
    Last resort: rebuild from the configured source snapshot.
    """
    layout = DurableLayout(root)
    config = _durable_config(layout)
    try:
        published = layout.current_generation()
    except StorageError:
        on_disk = layout.generations_on_disk()
        published = max(on_disk) if on_disk else 0
    report = RecoveryReport(requested_generation=published)
    reg = registry()
    with span("db.recover", force=True) as sp:
        db = None
        wal_floor = min(layout.wal_generations_on_disk(), default=0)
        for generation in range(published, -1, -1):
            if generation > 0:
                snapshot_path = layout.snapshot_path(generation)
                try:
                    meta, arrays, _ = read_archive(snapshot_path, DB_FORMAT)
                    candidate = _from_archive(snapshot_path, meta, arrays, **options)
                except StorageError as exc:
                    report.fallbacks += 1
                    report.failures.append(str(exc))
                    reg.counter("db.recovery.fallbacks").inc()
                    emit("db.recovery.fallback", generation=generation, error=str(exc))
                    continue
            elif wal_floor > 0:
                # The empty-base rung needs the full WAL chain; segment 0
                # was retired, so only the source rung remains.
                report.failures.append(
                    f"wal floor is generation {wal_floor}: cannot replay from empty"
                )
                break
            else:
                candidate = _empty_database(
                    layout.config_path, "durable config", config, **options
                )
            _replay_chain(candidate, layout, generation, published, report)
            db = candidate
            report.used_generation = generation
            break
        if db is None:
            db = _rebuild_from_source(config, layout, report, **options)
        db.durable = True
        db.fsync = config.get("fsync", "always")
        db.keep_generations = config.get("keep_generations", DEFAULT_KEEP_GENERATIONS)
        db.source = config.get("source")
        db._layout = layout
        db._generation = published
        if db._wal is None:
            # Opening the live segment for append truncates any torn
            # tail left by the crash we are recovering from.
            db._wal = WriteAheadLog(
                layout.wal_path(published), generation=published, fsync=db.fsync
            )
        if report.source_rebuild:
            # Publish the rebuilt state as a generation of its own: until
            # then every open would rebuild it again and drop what was
            # logged since.
            checkpoint(db)
        db.last_recovery = report
        if report.degraded:
            reg.counter("db.recovery.degraded").inc()
        reg.counter("db.recovery.replayed_records").inc(report.replayed_records)
        sp.set(
            objects=len(db),
            generation=report.used_generation,
            fallbacks=report.fallbacks,
        )
    emit(
        "db.recovery",
        path=str(root),
        requested_generation=report.requested_generation,
        used_generation=report.used_generation,
        fallbacks=report.fallbacks,
        replayed_records=report.replayed_records,
        torn_segments=list(report.torn_segments),
        source_rebuild=report.source_rebuild,
        degraded=report.degraded,
    )
    return db


def _rebuild_from_source(config, layout, report, **options):
    """Last rung: every snapshot failed and the WAL chain is incomplete —
    rebuild from the configured source, a snapshot file (``.npz`` or
    dense, every member CRC-checked like any open) with the durable
    config's capacity and dimension; a relative source is relative to
    the durable directory.

    Every object of the source is re-added under its own oid with its
    payload.  Acknowledged mutations made after the source was saved are
    lost (this rung exists so the service comes back *at all*);
    :func:`recover` publishes the rebuilt state as a new generation.
    """
    source = config.get("source")
    if not source:
        failures = "; ".join(report.failures) or "no usable snapshot"
        raise StorageError(
            f"{layout.root}: recovery impossible ({failures}) and no "
            "source snapshot is configured for a full rebuild"
        )
    source_path = Path(source)
    if not source_path.is_absolute():
        source_path = layout.root / source_path
    if source_path.is_dir():
        raise StorageError(
            f"{source_path}: a source must be a snapshot file, not a directory"
        )
    meta, arrays, _ = read_archive(source_path, DB_FORMAT)
    src = _from_archive(source_path, meta, arrays)
    omega = config["omega"]
    expected = {
        "capacity": config["capacity"],
        "dimension": None if omega is None else len(omega),
    }
    for key, value in expected.items():
        held = getattr(src, key)
        if value is not None and held is not None and held != value:
            raise StorageError(
                f"{source_path}: source snapshot holds {key} {held!r}, "
                f"but the durable config has {value!r}"
            )
    db = _empty_database(layout.config_path, "durable config", config, **options)
    for oid in src.object_ids():
        db.add(oid, src.get(oid), src.payload(oid))
    report.source_rebuild = True
    report.used_generation = -1
    report.replayed_records += len(db)
    registry().counter("db.recovery.source_rebuilds").inc()
    emit("db.recovery.source_rebuild", source=str(source_path), objects=len(db))
    return db


def open_plain(path, **options):
    """Open a snapshot file or a durable directory
    (:meth:`SimilarityDatabase.load`)."""
    kind = layout_of(path)
    if kind == "sharded":
        raise StorageError(f"{path} is a sharded database: open it with open_database()")
    if kind == "durable":
        return recover(path, **options)
    return open_snapshot(path, **options)


def open_layout(path, **options):
    """Open any layout with the class that wrote it (:func:`open_database`)."""
    if layout_of(path) == "sharded":
        return open_sharded(path, **options)
    return open_plain(path, **options)


# -- sharded directories --------------------------------------------------------


@dataclass(frozen=True)
class SavedLayout:
    """The shard files a non-durable sharded save (or open) left, the
    version vector they hold, and a token that no other save shares."""

    paths: tuple[Path, ...]
    versions: tuple[int, ...]
    token: str = field(default_factory=lambda: os.urandom(16).hex())


def save_sharded(db, root, *, dense: bool) -> list[Path]:
    """Write the sharded *db* as one snapshot file per shard plus the
    manifest (caller holds every shard's read lock); returns the shard
    paths."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    with span("db.sharded.save", force=True, shards=db.n_shards) as sp:
        paths = [shard_path(root, i, durable=False) for i in range(db.n_shards)]
        for shard, path in zip(db.shards, paths):
            write_snapshot(shard, path, dense=dense)
        write_manifest(db, root, durable=False)
        # A layout saved with more shards before a reshard would
        # otherwise leave orphan archives past the manifest's K.
        for stale in root.glob("shard-*.npz"):
            if stale not in paths:
                stale.unlink()
        sp.set(objects=len(db))
    emit("db.snapshot", op="save", objects=len(db), path=str(root), shards=db.n_shards)
    return paths


def checkpoint_sharded(db) -> Path:
    """Checkpoint every shard of the durable sharded *db*, ascending.
    Each shard's checkpoint is atomic, so a crash in a gap leaves a mixed
    but fully recoverable layout."""
    for i, shard in enumerate(db.shards):
        if i:
            crash_point("between-shard-checkpoints")
        shard.checkpoint()
    emit("db.checkpoint", shards=db.n_shards, objects=len(db), path=str(db._root))
    return db._root


def open_sharded(root, *, model=None, pipeline=None, cache=None, lock_timeout=None):
    """Open the sharded layout at *root*: every shard through the plain
    openers, checked to agree with the others (:func:`_check_agreement`),
    the pipeline rebuilt from the manifest if none is given."""
    from repro.db.sharded import ShardedSimilarityDatabase  # it imports this module

    root = Path(root)
    manifest = read_manifest(root)
    count, durable = manifest["shards"], manifest["durable"]
    with span("db.sharded.load", force=True, shards=count):
        paths = [shard_path(root, i, durable) for i in range(count)]
        for path in paths:
            if not durable and not path.exists():
                raise StorageError(f"{root}: missing {path.name}")
        shards = [open_plain(path, lock_timeout=lock_timeout) for path in paths]
        _check_agreement(shards, paths)
        _share_sketcher(shards, paths)
    db = ShardedSimilarityDatabase.__new__(ShardedSimilarityDatabase)
    db.capacity = manifest.get("capacity", shards[0].capacity)
    db.n_shards = count
    db.shards = shards
    db.model = model
    db.pipeline = _pipeline(pipeline, manifest)
    db.cache = cache
    db.lock_timeout = lock_timeout
    db.durable = durable
    db.fsync = shards[0].fsync
    db.keep_generations = shards[0].keep_generations
    db._root = root if durable else None
    db._saved = None if durable else SavedLayout(tuple(paths), db.version_vector())
    db.last_recovery = [shard.last_recovery for shard in shards] if durable else None
    db.last_parallel_legs = None
    emit("db.snapshot", op="load", objects=len(db), path=str(root), shards=count)
    return db


#: The settings the shards of one layout share; the last two are unknown
#: (``None``) on a shard that never held an object.
_SHARD_SETTINGS = ("capacity", "block_size", "dimension", "omega")


def _check_agreement(shards, paths) -> None:
    """Refuse the opened *shards* (at *paths*) of one layout unless they
    share :data:`_SHARD_SETTINGS`: a :class:`StorageError` names the
    first shard that disagrees with the shards before it, and the key.
    :func:`open_sharded` (every sharded open, a pool worker's included)
    and ``repro db verify`` run it, so no query joins engines of
    different widths or metrics."""
    shared: dict = {}
    for shard, path in zip(shards, paths):
        known = _SHARD_SETTINGS if shard.dimension is not None else _SHARD_SETTINGS[:2]
        for key in known:
            value = getattr(shard, key)
            value = value.tolist() if key == "omega" else value
            if shared.setdefault(key, value) != value:
                raise StorageError(
                    f"{path}: shard disagrees with the shards before it: "
                    f"{key!r} holds {value!r}, not {shared[key]!r}"
                )


def donor(shards):
    """The shard whose settings a fresh shard or a join takes: one that
    owns a sketcher, which knows the sketch parameters (a shard that
    never held an object has none), else the first."""
    return next((s for s in shards if s._sketcher is not None), shards[0])


def _share_sketcher(shards, paths) -> None:
    """Make the opened *shards* (at *paths*) of one layout sketch with
    the donor's projection, whatever defaults they were written under.

    A shard that never held an object stored no sketch parameters: it
    takes the donor's, so that its first add takes the donor's sketcher.
    A durable shard that was empty at its last checkpoint drew its own
    projection while replaying its WAL: its sets are sketched again
    with the donor's.
    """
    first = donor(shards)
    sketcher = first._sketcher
    if sketcher is None:
        return
    for shard, path in zip(shards, paths):
        if shard._sketcher is None:
            shard._sketch_params = settings(first)["sketch_params"]
        elif shard._sketcher.digest() != sketcher.digest():
            shard._sketcher = sketcher
            if shard._engine is not None:
                oids, offsets, rows, centroids = shard._engine.ragged()
                sets = np.split(rows, offsets[1:-1])
                codes = np.stack([sketcher.sketch(arr) for arr in sets])
                _fill_engine(path, shard, oids, np.diff(offsets), rows, centroids, codes)


def as_one(shards):
    """The databases *shards* — the shards of one layout, each read-locked
    by the caller or nobody else's yet — as one non-durable database
    that answers like one holding all their objects.

    The engines' live rows — sketch codes included — are concatenated
    as they lie (:meth:`FilterRefineEngine.joined`), since no answer
    depends on row order; the sketcher is the donor's.  The version is
    the sum of the shards'; there are no payloads.  Built per call and
    never cached: a query holds read locks, and a read lock writes no
    state.
    """
    from repro.db.core import SimilarityDatabase  # core imports this module

    first = donor(shards)
    engines = [shard._engine for shard in shards if shard._engine is not None]
    with span("db.sharded.as_one", shards=len(shards)):
        db = SimilarityDatabase(
            first.capacity,
            block_size=first.block_size,
            sketch=first._sketcher is not None,
        )
        db._version = sum(shard._version for shard in shards)
        if engines:
            db._engine = FilterRefineEngine.joined(engines)
            db.dimension, db.omega = db._engine.dimension, db._engine.omega
        db._sketcher = first._sketcher
    return db


# -- verification ---------------------------------------------------------------


def verify(path) -> tuple[int, list[tuple[str, str]]]:
    """``repro db verify``: exit code 0 (ok), 1 (corrupt) or 3 (recovered
    with degradation), and the report as ``(stream, line)`` pairs with
    stream ``"out"`` or ``"err"``.  Any
    :class:`~repro.exceptions.ReproError` on the way is corruption."""
    lines: list[tuple[str, str]] = []
    try:
        if layout_of(path) == "sharded":
            return _verify_sharded(Path(path), lines), lines
        return _verify_plain(Path(path), lines)[0], lines
    except ReproError as exc:
        lines.append(("err", f"verify: corrupt: {exc}"))
        return 1, lines


def _verify_sharded(root: Path, lines: list) -> int:
    """Every shard with the plain walk (the worst code wins: corrupt over
    degraded over ok), then every object on the shard its routing says.
    Each shard is opened once; a shard that does not open makes the
    layout corrupt, reported as its first such failure."""
    from repro.db.sharded import shard_of

    manifest = read_manifest(root)
    count, durable = manifest["shards"], manifest["durable"]
    kind = "durable" if durable else "snapshot"
    lines.append(("out", f"sharded layout: {count} shards ({kind})"))
    worst, failure, shards = 0, None, []
    for i in range(count):
        path = shard_path(root, i, durable)
        lines.append(("out", f"--- shard {i}: {path.name}"))
        try:
            code, shard = _verify_plain(path, lines)
            shards.append(shard)
        except ReproError as exc:
            lines.append(("err", f"shard {i}: corrupt: {exc}"))
            failure, code = failure or exc, 1
        worst = 1 if 1 in (code, worst) else code or worst
    if failure is not None:
        raise failure
    _check_agreement(shards, [shard_path(root, i, durable) for i in range(count)])
    misrouted = [
        (oid, i)
        for i, shard in enumerate(shards)
        for oid in shard.object_ids()
        if shard_of(oid, count) != i
    ]
    for oid, i in misrouted[:5]:
        routed = shard_of(oid, count)
        lines.append(("err", f"misrouted: oid {oid} on shard {i}, routing says {routed}"))
    worst = 1 if misrouted else worst
    versions = tuple(shard.version for shard in shards)
    lines.append(("out", f"version vector: {versions}"))
    verdict = {0: "ok", 1: "corrupt", 3: "recovered with degradation"}[worst]
    lines.append(("out", f"verify: {verdict}"))
    return worst


def _verify_plain(path: Path, lines: list):
    """One plain layout or shard.  A durable directory: CRC-walk every
    retained snapshot and WAL segment, then recover in memory — anything
    the ladder had to work around is a degradation.  A snapshot file,
    either container, is CRC-checked by its open.  Then
    ``check_invariants()`` on the opened database.  Returns the exit
    code and the opened (closed again, still readable) database."""
    degradations: list[str] = []
    kind = layout_of(path)
    if kind == "durable":
        layout = DurableLayout(path)
        _durable_config(layout)  # raises (-> exit 1) if this is not a durable db
        for generation in layout.generations_on_disk():
            try:
                read_archive(layout.snapshot_path(generation), DB_FORMAT)
            except ReproError as exc:
                degradations.append(str(exc))
        for generation in layout.wal_generations_on_disk():
            segment = layout.wal_path(generation)
            records, error = verify_segment(segment)
            if error:
                degradations.append(
                    f"{segment.name}: {error} (after {records} clean records)"
                )
    db = open_plain(path)
    try:
        db.check_invariants()
    finally:
        db.close()
    report = db.last_recovery
    if report is not None and report.degraded:
        degradations.append(
            f"recovery used generation {report.used_generation} of "
            f"{report.requested_generation} ({report.fallbacks} fallbacks, "
            f"{report.replayed_records} records replayed)"
        )
    lines.append(("out", f"objects:    {len(db)}"))
    lines.append(("out", "invariants: ok"))
    if kind == "durable" and report is not None:
        replayed = report.replayed_records
        lines.append(("out", f"generation: {db.generation} (replayed {replayed} records)"))
    lines.extend(("err", f"degraded: {message}") for message in degradations)
    if degradations:
        lines.append(("out", "verify: recovered with degradation"))
        return 3, db
    lines.append(("out", "verify: ok"))
    return 0, db

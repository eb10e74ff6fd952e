"""The object database: normalized objects, scale factors and features.

Section 3.2: "We store each object normalized with respect to translation
and scaling in the database.  Furthermore, we store the scaling factors
for each of the three dimensions" — this module is that store.  Beyond
the paper it also persists extracted features keyed by model name, so
expensive extractions (greedy covers, solid-angle convolutions) are paid
once per dataset and reused by every experiment.

Storage layout of :meth:`ObjectDatabase.save`: one compressed ``.npz``
holding all grids, features and metadata, portable and dependency-free.

Robustness (format version 2):

* **Atomic saves** — :meth:`ObjectDatabase.save` writes to a sibling
  temporary file and ``os.replace``\\ s it over the target, so a crash
  mid-write can never corrupt a previously good database.
* **Per-record checksums** — every record's grid, origin and feature
  bytes are CRC32-checksummed at save time and verified at load time.
* **Strict vs tolerant loads** — ``load(path, strict=False)`` skips
  records whose payload is corrupt (bad checksum, undecodable zip
  member, implausible shape) and reports them in
  :attr:`ObjectDatabase.skipped` instead of raising on the first bad
  byte.  Version-1 files (no checksums) still load.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import StorageError
from repro.normalize.pose import PoseInfo
from repro.voxel.grid import VoxelGrid

#: Current on-disk format version written by :meth:`ObjectDatabase.save`.
FORMAT_VERSION = 2

#: Largest raster resolution a record may declare; anything beyond this
#: is treated as corruption (4096^3 bits is already a 8 GiB occupancy).
MAX_RESOLUTION = 4096


@dataclass(frozen=True)
class SkippedRecord:
    """A record :meth:`ObjectDatabase.load` skipped in tolerant mode."""

    index: int
    name: str
    error_type: str
    error: str


def _record_checksum(
    packed: np.ndarray, origin: np.ndarray, features: dict[str, np.ndarray]
) -> str:
    """CRC32 over a record's payload bytes (grid, origin, features)."""
    crc = zlib.crc32(np.ascontiguousarray(packed, dtype=np.uint8).tobytes())
    crc = zlib.crc32(np.ascontiguousarray(origin, dtype=float).tobytes(), crc)
    for model_name in sorted(features):
        crc = zlib.crc32(
            np.ascontiguousarray(features[model_name], dtype=float).tobytes(), crc
        )
    return f"{crc & 0xFFFFFFFF:08x}"


@dataclass
class StoredObject:
    """One database record."""

    name: str
    family: str
    class_id: int
    grid: VoxelGrid
    pose: PoseInfo
    features: dict[str, np.ndarray] = field(default_factory=dict)


class ObjectDatabase:
    """An in-memory, persistable collection of :class:`StoredObject`."""

    def __init__(self) -> None:
        self._objects: list[StoredObject] = []
        #: Records skipped by the last tolerant :meth:`load` (empty for
        #: strict loads and freshly built databases).
        self.skipped: list[SkippedRecord] = []

    # -- collection interface ------------------------------------------------

    def add(self, obj: StoredObject) -> int:
        """Append a record; returns its object id."""
        self._objects.append(obj)
        return len(self._objects) - 1

    def __len__(self) -> int:
        return len(self._objects)

    def __getitem__(self, object_id: int) -> StoredObject:
        return self._objects[object_id]

    def __iter__(self):
        return iter(self._objects)

    # -- features --------------------------------------------------------------

    def set_features(self, model_name: str, features: list[np.ndarray]) -> None:
        """Attach one feature array per object under *model_name*."""
        if len(features) != len(self._objects):
            raise StorageError(
                f"got {len(features)} feature arrays for {len(self._objects)} objects"
            )
        for obj, array in zip(self._objects, features):
            obj.features[model_name] = np.asarray(array, dtype=float)

    def get_features(self, model_name: str) -> list[np.ndarray]:
        try:
            return [obj.features[model_name] for obj in self._objects]
        except KeyError:
            raise StorageError(f"no features stored under {model_name!r}") from None

    def has_features(self, model_name: str) -> bool:
        return bool(self._objects) and all(
            model_name in obj.features for obj in self._objects
        )

    # -- persistence --------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the whole database to one compressed ``.npz``.

        The write is atomic: everything goes to a sibling temporary file
        first and is renamed over *path* only once fully written, so an
        interrupted save leaves any pre-existing database untouched.
        """
        path = Path(path)
        arrays: dict[str, np.ndarray] = {}
        records = []
        for index, obj in enumerate(self._objects):
            packed = np.packbits(obj.grid.occupancy)
            origin = np.asarray(obj.grid.origin, dtype=float)
            arrays[f"grid_{index}"] = packed
            arrays[f"origin_{index}"] = origin
            for model_name, feature in obj.features.items():
                arrays[f"feat_{index}_{model_name}"] = feature
            records.append(
                {
                    "name": obj.name,
                    "family": obj.family,
                    "class_id": obj.class_id,
                    "resolution": obj.grid.resolution,
                    "voxel_size": obj.grid.voxel_size,
                    "scale_factors": list(obj.pose.scale_factors),
                    "translation": list(obj.pose.translation),
                    "feature_models": sorted(obj.features),
                    "checksum": _record_checksum(packed, origin, obj.features),
                }
            )
        meta = {"format_version": FORMAT_VERSION, "records": records}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            # savez on an open handle keeps numpy from appending ".npz"
            # to the temporary name.
            with open(tmp, "wb") as handle:
                np.savez_compressed(handle, **arrays)
            os.replace(tmp, path)
        except OSError as exc:
            raise StorageError(f"cannot write database {path}: {exc}") from exc
        finally:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    @staticmethod
    def _decode_record(data, index: int, record: dict, version: int) -> StoredObject:
        """Decode and validate one saved record (raises on corruption)."""
        name = record.get("name", f"record-{index}")
        resolution = int(record["resolution"])
        if not 1 <= resolution <= MAX_RESOLUTION:
            raise StorageError(
                f"record {index} ({name}): implausible resolution {resolution}"
            )
        packed = np.asarray(data[f"grid_{index}"])
        origin = np.asarray(data[f"origin_{index}"], dtype=float)
        features = {
            model_name: data[f"feat_{index}_{model_name}"]
            for model_name in record["feature_models"]
        }
        if version >= 2:
            actual = _record_checksum(packed, origin, features)
            if actual != record.get("checksum"):
                raise StorageError(
                    f"record {index} ({name}): checksum mismatch "
                    f"(stored {record.get('checksum')!r}, computed {actual!r})"
                )
        n_voxels = resolution**3
        if packed.size * 8 < n_voxels:
            raise StorageError(
                f"record {index} ({name}): occupancy data truncated"
            )
        occupancy = np.unpackbits(packed, count=n_voxels).astype(bool)
        grid = VoxelGrid(
            occupancy.reshape((resolution,) * 3),
            origin,
            float(record["voxel_size"]),
        )
        pose = PoseInfo(
            scale_factors=tuple(float(s) for s in record["scale_factors"]),
            translation=tuple(float(t) for t in record["translation"]),
        )
        return StoredObject(
            name=name,
            family=record["family"],
            class_id=int(record["class_id"]),
            grid=grid,
            pose=pose,
            features=features,
        )

    @classmethod
    def load(cls, path: str | Path, strict: bool = True) -> "ObjectDatabase":
        """Load a database written by :meth:`save`.

        With ``strict=True`` (default) any corruption raises
        :class:`StorageError`.  With ``strict=False`` records whose
        payload cannot be decoded or fails its checksum are skipped and
        reported in the returned database's :attr:`skipped` list; only
        container-level damage (unreadable zip, undecodable metadata)
        still raises.
        """
        path = Path(path)
        db = cls()
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode())
                if isinstance(meta, list):  # format version 1 (no checksums)
                    version, records = 1, meta
                elif isinstance(meta, dict):
                    version = int(meta.get("format_version", 0))
                    records = meta.get("records")
                    if version < 1 or not isinstance(records, list):
                        raise StorageError(f"{path}: malformed database metadata")
                    if version > FORMAT_VERSION:
                        raise StorageError(
                            f"{path}: format version {version} is newer than "
                            f"the supported {FORMAT_VERSION}"
                        )
                else:
                    raise StorageError(f"{path}: malformed database metadata")
                for index, record in enumerate(records):
                    try:
                        if not isinstance(record, dict):
                            raise StorageError(
                                f"record {index}: metadata entry is not a mapping"
                            )
                        obj = cls._decode_record(data, index, record, version)
                    except Exception as exc:
                        if strict:
                            raise
                        name = (
                            record.get("name", f"record-{index}")
                            if isinstance(record, dict)
                            else f"record-{index}"
                        )
                        db.skipped.append(
                            SkippedRecord(index, name, type(exc).__name__, str(exc))
                        )
                        continue
                    db.add(obj)
        except StorageError:
            raise
        except Exception as exc:
            # OSError, zlib.error, zipfile.BadZipFile, KeyError, json
            # decoding failures, ... — anything the container can throw.
            raise StorageError(f"cannot load database {path}: {exc}") from exc
        return db

"""Snapshot archives: one CRC-checked ``.npz`` of named arrays.

Every snapshot file the database writes (plain, durable generation,
shard) is one archive of named arrays and a JSON meta block
(:func:`write_archive` / :func:`read_archive`).  The database writes no
index into it; an older layout's ``index__*`` members — the flat node
tables of an R*-/X-tree, or a point table — are still CRC-checked and
named in integrity errors (:func:`describe_member`), but never parsed.
The flat node-table form itself lives on as the snapshot of an array
core (:meth:`repro.index.arraycore.RTreeArrayCore.serialized`).

Every array is CRC32-checksummed at save time and verified at load
time, and writes go to a process-unique temporary file that is
``os.replace``\\ d over the target, so a crash mid-save can never
destroy the previous snapshot.  Whatever damage the bytes carry, a read
fails with a :class:`~repro.exceptions.StorageError` (a
:class:`~repro.exceptions.SnapshotIntegrityError` naming the member
where one is to blame), never with the zip or ``.npy`` reader's own
exceptions.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import SnapshotIntegrityError, StorageError
from repro.testing.faults import crash_point

SNAPSHOT_VERSION = 1


def _stamped(meta: dict, kind: str) -> dict:
    """*meta* with the index snapshot's format, version and *kind*."""
    meta.update(format="repro-index-snapshot", version=SNAPSHOT_VERSION, kind=kind)
    return meta


def _checksums(arrays: dict[str, np.ndarray]) -> dict[str, int]:
    return {
        name: zlib.crc32(np.ascontiguousarray(arr).tobytes())
        for name, arr in sorted(arrays.items())
    }


# -- archives --------------------------------------------------------------


def write_archive(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write a CRC-checked ``.npz`` archive atomically (tmp + replace).

    *meta* must carry a ``format`` marker; per-array CRC32 checksums are
    added here and verified by :func:`read_archive`.  Every snapshot
    file of the mutable database (plain, durable generation, shard) is
    one of these.  A failed write (a full disk, a missing permission)
    raises :class:`StorageError` naming *path* and leaves no temporary
    file behind.
    """
    path = Path(path)
    meta = dict(meta)
    meta["checksums"] = _checksums(arrays)
    payload = dict(arrays)
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        # Crash seam: the archive bytes exist only in the temporary
        # file; dying here must leave the published snapshot untouched.
        crash_point("mid-snapshot-write")
        os.replace(tmp, path)
    except OSError as exc:
        raise StorageError(f"cannot write snapshot {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)
    return path


def describe_member(name: str) -> str:
    """A human classification of an archive member, for actionable
    integrity errors: which *part* of the database the bad bytes hold.
    """
    if name == "meta":
        return "archive metadata block"
    if name.startswith("index__"):
        inner = name[len("index__") :]
        if inner.startswith("node_"):
            return f"index node-table array {inner!r}"
        if inner.startswith("entry_"):
            return f"index entry-table array {inner!r}"
        if inner.startswith("obj_"):
            return f"index stored-object array {inner!r}"
        return f"index structure array {inner!r}"
    if name.startswith("set_") or name == "centroids":
        return f"object-store column {name!r}"
    return f"archive member {name!r}"


def read_archive(
    path: str | Path, expected_format: str
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and integrity-check an archive written by :func:`write_archive`.

    Integrity failures raise :class:`SnapshotIntegrityError` naming the
    offending member and what it holds (``index node-table array
    'entry_lowers'``, ``object-store column 'set_data'``, ...) so the
    recovery ladder's logs say *what* is damaged, not just that
    something is.
    """
    path = Path(path)
    # Everything the zip and .npy readers raise on damaged bytes: a bad
    # zip version or compression method (NotImplementedError, a
    # RuntimeError), the "encrypted" flag (RuntimeError), a short member
    # (EOFError), an unparsable .npy header (TokenError), ...
    member_errors = (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        RuntimeError,
        zlib.error,
        zipfile.BadZipFile,
        tokenize.TokenError,
    )
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise StorageError(f"{path} is not a snapshot archive (a bare .npy array)")
        with archive:
            names = list(archive.files)
            payload = {}
            for name in names:
                try:
                    payload[name] = archive[name]
                except member_errors as exc:
                    raise SnapshotIntegrityError(
                        path, name, f"unreadable: {exc}", kind=describe_member(name)
                    ) from exc
    except StorageError:
        raise
    except member_errors as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    if "meta" not in payload:
        raise StorageError(f"{path} is not a snapshot archive (no meta block)")
    try:
        meta = json.loads(bytes(payload.pop("meta")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotIntegrityError(
            path, "meta", str(exc), kind=describe_member("meta")
        ) from exc
    if not isinstance(meta, dict):
        raise StorageError(f"{path}: malformed snapshot: meta is not a JSON object")
    if meta.get("format") != expected_format:
        raise StorageError(
            f"{path} holds {meta.get('format')!r}, expected {expected_format!r}"
        )
    stored = meta.get("checksums", {})
    if not isinstance(stored, dict):
        raise StorageError(
            f"{path}: malformed snapshot: meta key 'checksums' holds {stored!r:.80}"
        )
    actual = _checksums(payload)
    for name in sorted(set(stored) | set(actual)):
        if stored.get(name) != actual.get(name):
            raise SnapshotIntegrityError(
                path,
                name,
                f"checksum mismatch (stored {stored.get(name)!r}, "
                f"computed {actual.get(name)!r})",
                kind=describe_member(name),
            )
    return meta, payload


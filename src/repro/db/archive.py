"""Snapshot archives: the one file format of every database snapshot.

Every snapshot file the database writes (plain, durable generation,
shard) is one archive of named arrays and a JSON meta block, in one of
two containers:

* ``.npz`` — a ``np.savez_compressed`` zip whose ``meta`` member holds
  the meta block, the per-array CRC32 checksums under its
  ``"checksums"`` key;
* *dense* — ``[magic][u32 header length][header JSON][padding][array 0]
  [array 1]...``, its header holding the meta block and the array table
  (per array: name, dtype string, shape, byte offset and length,
  CRC32), every array block aligned to 64 bytes, so that one
  ``np.memmap`` addresses them all.

:func:`write_archive` writes either container atomically: a
process-unique temporary file, synced, ``os.replace``\\ d over the
target, so a crash mid-save never destroys the previous snapshot.
:func:`read_archive` finds the container from the magic bytes, parses
it, and then checks it alike whichever it is: the meta block is a JSON
object of the expected ``format`` and every member's CRC32 matches.  A
dense archive's members are read-only views over one shared
``np.memmap`` (each view's ``base`` chain keeps the map alive), so the
check pages every member in once; the engine copies them all on open
anyway.  Whatever damage the bytes carry, a read fails with a
:class:`~repro.exceptions.StorageError` (a
:class:`~repro.exceptions.SnapshotIntegrityError` naming the member
where one is to blame, :func:`describe_member`), never with the zip or
``.npy`` reader's own exceptions.  The dense header itself carries no
checksum: its array table is checked record by record before use, but
a changed digit of its meta block opens.

The database writes no index into a snapshot; an older layout's
``index__*`` members — the flat node tables of an R*-/X-tree, or a point
table — are still CRC-checked and named in integrity errors, but never
parsed.
"""

from __future__ import annotations

import json
import math
import os
import tokenize
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import SnapshotIntegrityError, StorageError
from repro.testing.faults import crash_point

DENSE_MAGIC = b"REPRODNS"
DENSE_VERSION = 1
_ALIGN = 64


def _crc(arr: np.ndarray) -> int:
    """CRC32 of *arr*'s C-order bytes, read in place when contiguous."""
    return zlib.crc32(np.ascontiguousarray(arr))


def _data_start(header_len: int) -> int:
    """Where a dense archive's array region begins."""
    return -(-(len(DENSE_MAGIC) + 4 + header_len) // _ALIGN) * _ALIGN


def is_dense_archive(path: str | Path) -> bool:
    """True if *path* starts with the dense container magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(DENSE_MAGIC)) == DENSE_MAGIC
    except OSError:
        return False


# -- writing ----------------------------------------------------------------


def _write_npz(handle, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    meta = dict(meta, checksums={name: _crc(arrays[name]) for name in sorted(arrays)})
    payload = dict(arrays)
    payload["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(handle, **payload)


def _write_dense(handle, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    blocks = {name: np.ascontiguousarray(arrays[name]) for name in sorted(arrays)}
    table = []
    offset = 0  # relative to the start of the array region
    for name, arr in blocks.items():
        offset = -(-offset // _ALIGN) * _ALIGN
        table.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
                "crc32": _crc(arr),
            }
        )
        offset += arr.nbytes
    header = json.dumps(
        {"version": DENSE_VERSION, "meta": dict(meta), "arrays": table},
        sort_keys=True,
    ).encode("utf-8")
    prefix = DENSE_MAGIC + np.uint32(len(header)).tobytes() + header
    handle.write(prefix)
    handle.write(b"\0" * (_data_start(len(header)) - len(prefix)))
    written = 0
    for record, arr in zip(table, blocks.values()):
        handle.write(b"\0" * (record["offset"] - written))
        handle.write(arr.tobytes())
        written = record["offset"] + record["nbytes"]


def write_archive(
    path: str | Path, meta: dict, arrays: dict[str, np.ndarray], *, dense: bool
) -> Path:
    """Atomically write *meta* and *arrays* as a ``.npz`` archive, or as
    a dense one if *dense*; :func:`read_archive` reads either back.

    *meta* must carry a ``format`` marker; every array's CRC32 is
    computed here.  A failed write (a full disk, a missing permission)
    raises :class:`StorageError` naming *path* and leaves no temporary
    file behind.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            (_write_dense if dense else _write_npz)(handle, meta, arrays)
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


# -- reading ----------------------------------------------------------------


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


def _parse_meta(path: Path, blob: bytes):
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotIntegrityError(
            path, "meta", str(exc), kind=describe_member("meta")
        ) from exc


def _read_npz(path: Path, handle):
    """``(meta, arrays, stored checksums)`` of the ``.npz`` at *path*,
    open as *handle*."""
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
        archive = np.load(handle, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise StorageError(f"{path} is not a snapshot archive (a bare .npy array)")
        with archive:
            payload = {}
            for name in archive.files:
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
    meta = _parse_meta(path, bytes(payload.pop("meta")))
    stored = meta.get("checksums", {}) if isinstance(meta, dict) else {}
    return meta, payload, stored


def _natural(value) -> bool:
    return type(value) is int and value >= 0


def _checked_table(path: Path, table) -> list[dict]:
    """The dense header's array table, every record checked before it is
    used (the header is not CRC-covered): a str ``name``; non-negative
    int ``offset``, ``nbytes`` and ``crc32``; a ``dtype`` that parses to
    a plain numeric dtype; a ``shape`` of non-negative ints that spans
    exactly ``nbytes``.  Returns the records with the dtype parsed."""
    if not isinstance(table, list):
        raise SnapshotIntegrityError(
            path, "arrays", "the array table is not a list", kind="dense array table"
        )
    checked = []
    for position, record in enumerate(table):
        name = record.get("name") if isinstance(record, dict) else None
        if not isinstance(name, str):
            raise SnapshotIntegrityError(
                path, "arrays", f"record {position} has no name", kind="dense array table"
            )

        def damaged(what: str):
            return SnapshotIntegrityError(
                path, name, f"array table: {what}", kind=describe_member(name)
            )

        for key in ("offset", "nbytes", "crc32"):
            if not _natural(record.get(key)):
                raise damaged(f"{key} {record.get(key)!r} is not a non-negative int")
        spelled = record.get("dtype")
        try:
            # np.dtype(None) would be float64: only a string may name one.
            dtype = np.dtype(spelled if isinstance(spelled, str) else "")
        except (TypeError, ValueError) as exc:
            raise damaged(f"dtype {spelled!r}: {exc}") from exc
        if dtype.kind not in "biufc" or dtype.fields or dtype.subdtype:
            raise damaged(f"dtype {dtype.str!r} is not a plain numeric dtype")
        shape = record.get("shape")
        if not isinstance(shape, list) or not all(map(_natural, shape)):
            raise damaged(f"shape {shape!r} is not a list of non-negative ints")
        if math.prod(shape) * dtype.itemsize != record["nbytes"]:
            raise damaged(
                f"shape {shape} of {dtype.str} does not span {record['nbytes']} bytes"
            )
        checked.append({**record, "dtype": dtype})
    return checked


def _read_dense(path: Path, handle):
    """``(meta, arrays, stored checksums)`` of the dense archive at
    *path*, open as *handle* just past the magic, every array a
    read-only view over one ``np.memmap``."""
    raw_len = handle.read(4)
    if len(raw_len) != 4:
        raise StorageError(f"{path}: truncated dense header")
    header_len = int(np.frombuffer(raw_len, dtype=np.uint32)[0])
    header_bytes = handle.read(header_len)
    if len(header_bytes) != header_len:
        raise StorageError(f"{path}: truncated dense header")
    file_size = os.fstat(handle.fileno()).st_size
    header = _parse_meta(path, header_bytes)
    if not isinstance(header, dict):
        raise StorageError(f"{path}: malformed snapshot: meta is not a JSON object")
    if header.get("version") != DENSE_VERSION:
        raise StorageError(
            f"{path}: unsupported dense snapshot version {header.get('version')!r}"
        )
    table = _checked_table(path, header.get("arrays", []))
    data_start = _data_start(header_len)
    end = max((r["offset"] + r["nbytes"] for r in table), default=0)
    if data_start + end > file_size:
        raise SnapshotIntegrityError(
            path,
            "arrays",
            f"file truncated ({file_size} bytes, need {data_start + end})",
            kind="dense array region",
        )
    buffer = np.memmap(handle, dtype=np.uint8, mode="r")
    arrays: dict[str, np.ndarray] = {}
    for record in table:
        start = data_start + record["offset"]
        view = buffer[start : start + record["nbytes"]].view(record["dtype"])
        view = view.reshape(record["shape"])
        view.flags.writeable = False
        arrays[record["name"]] = view
    stored = {record["name"]: record["crc32"] for record in table}
    return header.get("meta", {}), arrays, stored


def read_archive(
    path: str | Path, expected_format: str
) -> tuple[dict, dict[str, np.ndarray], bool]:
    """Read and integrity-check an archive written by :func:`write_archive`.

    Returns ``(meta, arrays, dense)``: what was written, and whether the
    container is the dense one.  Integrity failures raise
    :class:`SnapshotIntegrityError` naming the offending member and what
    it holds (``index node-table array 'entry_lowers'``, ``object-store
    column 'set_data'``, ...) so the recovery ladder's logs say *what*
    is damaged, not just that something is.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            dense = handle.read(len(DENSE_MAGIC)) == DENSE_MAGIC
            if not dense:
                handle.seek(0)
            meta, arrays, stored = (_read_dense if dense else _read_npz)(path, handle)
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise StorageError(f"{path}: malformed snapshot: meta is not a JSON object")
    if meta.get("format") != expected_format:
        raise StorageError(
            f"{path} holds {meta.get('format')!r}, expected {expected_format!r}"
        )
    if not isinstance(stored, dict):
        raise StorageError(
            f"{path}: malformed snapshot: meta key 'checksums' holds {stored!r:.80}"
        )
    for name in sorted(set(stored) | set(arrays)):
        actual = _crc(arrays[name]) if name in arrays else None
        if stored.get(name) != actual:
            raise SnapshotIntegrityError(
                path,
                name,
                f"checksum mismatch (stored {stored.get(name)!r}, computed {actual!r})",
                kind=describe_member(name),
            )
    return meta, arrays, dense

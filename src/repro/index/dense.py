"""Flat, mmap-able snapshot container for zero-copy loads.

The ``.npz`` archives of :mod:`repro.index.snapshot` are zip files:
their members are (optionally compressed) streams that must be inflated
into fresh buffers, so a loaded index always pays one resident copy of
every node table.  This module defines a *dense* container with the
same integrity guarantees (per-array CRC32, atomic replace) but a
layout that :func:`numpy.memmap` can address directly:

``[magic][u32 header length][header JSON][padding][array 0][array 1]...``

The header records, per array: name, dtype string, shape, byte offset
and length, and CRC32.  Array blocks are aligned to 64 bytes.  Reading
with ``mmap=True`` (the default) builds numpy views over one shared
``np.memmap`` — the OS pages node tables in on first touch, nothing is
copied, and a fresh process can answer its first query with O(1)
resident copies of the tables.  CRC verification forces a full read, so
it is opt-in (``verify=True``; ``repro db verify`` uses it).

The mmap stays alive exactly as long as any returned view: each view's
``base`` chain holds a reference to the ``np.memmap`` object, so there
are no explicit lifetime rules for callers beyond "keep the arrays you
use".
"""

from __future__ import annotations

import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import SnapshotIntegrityError, StorageError
from repro.index.snapshot import describe_member
from repro.testing.faults import crash_point

DENSE_MAGIC = b"REPRODNS"
DENSE_VERSION = 1
_ALIGN = 64


def is_dense_archive(path: str | Path) -> bool:
    """True if *path* starts with the dense container magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(DENSE_MAGIC)) == DENSE_MAGIC
    except OSError:
        return False


def write_dense_archive(
    path: str | Path, meta: dict, arrays: dict[str, np.ndarray]
) -> Path:
    """Atomically write *arrays* in the dense mmap-able layout; a failed
    write raises :class:`StorageError` naming *path*."""
    path = Path(path)
    blocks: list[tuple[str, np.ndarray]] = [
        (name, np.ascontiguousarray(arrays[name])) for name in sorted(arrays)
    ]
    table = []
    offset = 0  # relative to the start of the array region
    for name, arr in blocks:
        offset = -(-offset // _ALIGN) * _ALIGN
        table.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
                "crc32": zlib.crc32(arr.tobytes()),
            }
        )
        offset += arr.nbytes
    header = json.dumps(
        {"version": DENSE_VERSION, "meta": dict(meta), "arrays": table},
        sort_keys=True,
    ).encode("utf-8")
    prefix = len(DENSE_MAGIC) + 4 + len(header)
    data_start = -(-prefix // _ALIGN) * _ALIGN
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(DENSE_MAGIC)
            handle.write(np.uint32(len(header)).tobytes())
            handle.write(header)
            handle.write(b"\0" * (data_start - prefix))
            written = 0
            for record, (_, arr) in zip(table, blocks):
                pad = record["offset"] - written
                if pad:
                    handle.write(b"\0" * pad)
                handle.write(arr.tobytes())
                written = record["offset"] + record["nbytes"]
            handle.flush()
            os.fsync(handle.fileno())
        crash_point("mid-snapshot-write")
        os.replace(tmp, path)
    except OSError as exc:
        raise StorageError(f"cannot write snapshot {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)
    return path


def _natural(value) -> bool:
    return type(value) is int and value >= 0


def _checked_table(path: Path, table) -> list[dict]:
    """The header's array table, every record checked before it is used
    (the header is not CRC-covered): a str ``name``; non-negative int
    ``offset``, ``nbytes`` and ``crc32``; a ``dtype`` that parses to a
    plain numeric dtype; a ``shape`` of non-negative ints that spans
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


def read_dense_archive(
    path: str | Path,
    expected_format: str | None = None,
    *,
    mmap: bool = True,
    verify: bool = False,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a dense archive; returns ``(meta, arrays)``.

    With ``mmap=True`` the arrays are read-only views over one shared
    ``np.memmap`` (zero-copy); otherwise they are materialized copies.
    ``verify=True`` CRC-checks every array (a full sequential read) and
    raises :class:`SnapshotIntegrityError` naming the damaged member.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(DENSE_MAGIC))
            if magic != DENSE_MAGIC:
                raise StorageError(f"{path} is not a dense snapshot archive")
            raw_len = handle.read(4)
            if len(raw_len) != 4:
                raise StorageError(f"{path}: truncated dense header")
            header_len = int(np.frombuffer(raw_len, dtype=np.uint32)[0])
            header_bytes = handle.read(header_len)
            if len(header_bytes) != header_len:
                raise StorageError(f"{path}: truncated dense header")
            file_size = os.fstat(handle.fileno()).st_size
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotIntegrityError(
            path, "meta", str(exc), kind=describe_member("meta")
        ) from exc
    if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
        raise StorageError(f"{path}: malformed snapshot: meta is not a JSON object")
    if header.get("version") != DENSE_VERSION:
        raise StorageError(
            f"{path}: unsupported dense snapshot version {header.get('version')!r}"
        )
    meta = header.get("meta", {})
    if expected_format is not None and meta.get("format") != expected_format:
        raise StorageError(
            f"{path} holds {meta.get('format')!r}, expected {expected_format!r}"
        )
    prefix = len(DENSE_MAGIC) + 4 + header_len
    data_start = -(-prefix // _ALIGN) * _ALIGN
    table = _checked_table(path, header.get("arrays", []))
    end = max((r["offset"] + r["nbytes"] for r in table), default=0)
    if data_start + end > file_size:
        raise SnapshotIntegrityError(
            path,
            "arrays",
            f"file truncated ({file_size} bytes, need {data_start + end})",
            kind="dense array region",
        )
    if mmap:
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        buffer = np.fromfile(path, dtype=np.uint8)
    arrays: dict[str, np.ndarray] = {}
    for record in table:
        name = record["name"]
        start = data_start + record["offset"]
        raw = buffer[start : start + record["nbytes"]]
        if verify and zlib.crc32(raw.tobytes()) != record["crc32"]:
            raise SnapshotIntegrityError(
                path,
                name,
                "checksum mismatch",
                kind=describe_member(name),
            )
        view = raw.view(record["dtype"]).reshape(record["shape"])
        if mmap:
            view.flags.writeable = False
        arrays[name] = view
    return meta, arrays

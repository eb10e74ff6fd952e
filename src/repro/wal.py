"""``repro.wal`` — crash-safe durability for the mutable database.

The mutable :class:`~repro.db.SimilarityDatabase` acknowledges a
mutation the moment it returns; a process crash must not take
acknowledged work with it.  This module supplies the two halves of that
contract:

* :class:`WriteAheadLog` — an append-only, length-prefixed,
  CRC32-per-record mutation log.  Every record is framed as
  ``[u32 payload_len][u32 crc32(payload)][payload]``; the payload is a
  ``[u32 header_len][JSON header][raw float64 array bytes]`` pair, so
  add/update records carry their full vector set and replay never needs
  the original inputs.  The fsync policy is configurable —
  ``"always"`` (fsync every append: zero acknowledged loss),
  ``"every-N"`` / an integer N (fsync every N appends, bounded loss),
  or ``"none"`` (leave flushing to the OS).  Opening a segment for
  append scans it first and truncates a torn tail — the half-written
  record a crash mid-``write`` leaves behind — so the log is always
  well-formed from its header to its end.

* :class:`DurableLayout` — the on-disk generation store a durable
  database lives in::

      mydb/
        durable.json          # capacity/omega/block_size/... (static config)
        CURRENT               # text: the published snapshot generation
        snapshot-00000002.npz # CRC-checked archive for generation 2
        wal-00000002.log      # mutations applied after generation 2
        snapshot-00000001.npz # previous generation (recovery fallback)
        wal-00000001.log      # its segment, closed by a checkpoint record

  A checkpoint writes ``snapshot-(G+1)``, seals ``wal-G`` with a
  checkpoint record, opens ``wal-(G+1)``, and atomically republishes
  ``CURRENT`` — in that order, so a crash anywhere in between leaves the
  previous generation fully recoverable.  Old generations beyond
  ``keep_generations`` are retired only after the new one is published.

Recovery (the ladder itself is :func:`repro.db.storage.recover`) reads
``CURRENT``, loads that snapshot, and replays its WAL segment; if the
snapshot fails its CRC it falls back one generation and replays two
segments, and so on down to generation 0 (an empty database plus the
full retained WAL chain).  Chained replay is sound because segment
``wal-g`` contains exactly the mutations between snapshot *g* and
snapshot *g+1*.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import WALError
from repro.obs import emit, registry
from repro.testing.faults import crash_point

WAL_MAGIC = b"REPROWAL"
WAL_VERSION = 1

#: Record frame: payload length, then CRC32 of the payload.
_FRAME = struct.Struct("<II")
#: Payload prelude: JSON header length.
_HEADER_LEN = struct.Struct("<I")

#: Mutation operations a segment may carry.  ``checkpoint`` is a
#: control record sealing a segment; everything else replays as a state
#: change.  Nothing logs ``compact`` any more; a segment written while
#: databases had ``compact()`` still reads, and its record replays as a
#: version bump.
RECORD_OPS = ("add", "add_grid", "remove", "update", "compact", "checkpoint")


def _parse_fsync(policy) -> int:
    """Normalize a policy spec to an interval: 1=always, 0=never, N=every-N."""
    if policy in (None, "always", 1):
        return 1
    if policy in ("none", 0):
        return 0
    if isinstance(policy, str) and policy.startswith("every-"):
        policy = policy[len("every-") :]
    try:
        if not isinstance(policy, (str, int)):
            raise ValueError(policy)
        interval = int(policy)
    except (TypeError, ValueError):
        raise WALError(
            f"unknown fsync policy {policy!r}: use 'always', 'none', "
            "'every-N' or an integer interval"
        ) from None
    if interval < 0:
        raise WALError(f"fsync interval must be >= 0, got {interval}")
    return interval


def replace_synced(path: Path, text: str) -> None:
    """Atomically and durably replace *path* with *text*: a process-unique
    temporary file, synced before the rename (which must never publish
    unflushed bytes), the directory after it."""
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def fsync_dir(path: Path) -> None:
    """Flush directory metadata so a rename/create survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _encode_record(header: dict, array: np.ndarray | None) -> bytes:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"" if array is None else np.ascontiguousarray(array, dtype=np.float64).tobytes()
    return _HEADER_LEN.pack(len(blob)) + blob + body


def _decode_record(payload: bytes, *, context: str) -> dict:
    if len(payload) < _HEADER_LEN.size:
        raise WALError(f"{context}: record payload shorter than its header prelude")
    (header_len,) = _HEADER_LEN.unpack_from(payload)
    blob = payload[_HEADER_LEN.size : _HEADER_LEN.size + header_len]
    if len(blob) != header_len:
        raise WALError(f"{context}: record header truncated")
    try:
        record = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WALError(f"{context}: unreadable record header: {exc}") from exc
    if record.get("op") not in RECORD_OPS:
        raise WALError(f"{context}: unknown record op {record.get('op')!r}")
    body = payload[_HEADER_LEN.size + header_len :]
    shape = record.get("shape")
    if shape is not None:
        expected = int(np.prod(shape)) * 8
        if len(body) != expected:
            raise WALError(
                f"{context}: array body holds {len(body)} bytes, "
                f"shape {shape} needs {expected}"
            )
        record["array"] = (
            np.frombuffer(body, dtype=np.float64).reshape(shape).copy()
        )
    elif body:
        raise WALError(f"{context}: unexpected {len(body)} trailing body bytes")
    return record


class ScanResult:
    """Outcome of scanning one segment: the clean records, where the
    clean prefix ends, and what (if anything) was wrong with the tail."""

    def __init__(self, records: list[dict], good_until: int, error: str | None):
        self.records = records
        self.good_until = good_until
        self.error = error

    @property
    def torn(self) -> bool:
        return self.error is not None


class WriteAheadLog:
    """One append-only segment of the mutation log.

    Opening an existing segment validates the header, scans every
    record, and truncates a torn tail in place; the write position is
    therefore always the end of a well-formed record.  ``fsync``
    follows the parsed policy of :func:`_parse_fsync`.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        generation: int = 0,
        fsync="always",
        fresh: bool = False,
    ):
        self.path = Path(path)
        self.generation = generation
        self.fsync_interval = _parse_fsync(fsync)
        self._since_sync = 0
        self.appended = 0
        if fresh or not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            header = WAL_MAGIC + _FRAME.pack(
                WAL_VERSION, generation & 0xFFFFFFFF
            )
            with open(self.path, "wb") as handle:
                handle.write(header)
                handle.flush()
                os.fsync(handle.fileno())
            fsync_dir(self.path.parent)
            self._file = open(self.path, "r+b")
            self._file.seek(0, io.SEEK_END)
        else:
            scan = scan_segment(self.path)
            self._file = open(self.path, "r+b")
            if scan.torn:
                self._file.truncate(scan.good_until)
                self._file.flush()
                os.fsync(self._file.fileno())
                registry().counter("wal.torn_tail_truncations").inc()
                emit(
                    "wal.torn_tail",
                    path=str(self.path),
                    truncated_at=scan.good_until,
                    reason=scan.error,
                )
            self._file.seek(scan.good_until)

    # -- writing -----------------------------------------------------------

    def append(self, op: str, *, oid: int | None = None, array=None, **extra) -> int:
        """Append one record; returns the byte offset it starts at.

        The record is on disk (per the fsync policy) when this returns —
        callers log *before* applying the mutation, so an acknowledged
        mutation is always recoverable under ``fsync='always'``.
        """
        if op not in RECORD_OPS:
            raise WALError(f"unknown record op {op!r}")
        header: dict = {"op": op, **extra}
        if oid is not None:
            header["oid"] = int(oid)
        if array is not None:
            array = np.ascontiguousarray(array, dtype=np.float64)
            header["shape"] = list(array.shape)
        payload = _encode_record(header, array)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload))
        offset = self._file.tell()
        self._file.write(frame + payload)
        self.appended += 1
        self._since_sync += 1
        if self.fsync_interval == 1:
            self.sync()
        elif self.fsync_interval and self._since_sync >= self.fsync_interval:
            self.sync()
        else:
            self._file.flush()
        registry().counter(f"wal.appends.{op}").inc()
        crash_point("after-wal-append")
        return offset

    def sync(self) -> None:
        """Flush Python and OS buffers for everything appended so far."""
        self._file.flush()
        os.fsync(self._file.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if not self._file.closed:
            if self.fsync_interval:
                self.sync()
            else:
                self._file.flush()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def size(self) -> int:
        return self._file.tell()


# -- reading ---------------------------------------------------------------


def _read_header(data: bytes, path: Path) -> int:
    prelude = len(WAL_MAGIC) + _FRAME.size
    if len(data) < prelude or data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WALError(f"{path} is not a WAL segment (bad magic)")
    version, _generation = _FRAME.unpack_from(data, len(WAL_MAGIC))
    if version != WAL_VERSION:
        raise WALError(f"{path}: unsupported WAL version {version}")
    return prelude


def scan_segment(path: str | Path) -> ScanResult:
    """Read every clean record of a segment, stopping at the first
    torn/corrupt one.

    A missing/short header is a hard :class:`WALError` (the segment is
    not ours); anything wrong *after* the header is a torn tail — the
    scan reports where the clean prefix ends so the opener can truncate.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise WALError(f"cannot read WAL segment {path}: {exc}") from exc
    offset = _read_header(data, path)
    records: list[dict] = []
    error: str | None = None
    good_until = offset
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            error = "truncated record frame"
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        payload = data[start : start + length]
        if len(payload) != length:
            error = "truncated record payload"
            break
        if zlib.crc32(payload) != crc:
            error = "record CRC mismatch"
            break
        try:
            record = _decode_record(
                payload, context=f"{path} @ {offset}"
            )
        except WALError as exc:
            error = str(exc)
            break
        record["_offset"] = offset
        records.append(record)
        offset = start + length
        good_until = offset
    return ScanResult(records, good_until, error)


def verify_segment(path: str | Path) -> tuple[int, str | None]:
    """CRC-walk a segment: ``(clean_record_count, error_or_None)``."""
    try:
        scan = scan_segment(path)
    except WALError as exc:
        return 0, str(exc)
    return len(scan.records), scan.error


# -- the generation store --------------------------------------------------


CONFIG_NAME = "durable.json"
CURRENT_NAME = "CURRENT"
CONFIG_FORMAT = "repro-durable-db"
CONFIG_VERSION = 1


class DurableLayout:
    """Path arithmetic and atomic publication for a durable directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- naming ------------------------------------------------------------

    def snapshot_path(self, generation: int) -> Path:
        return self.root / f"snapshot-{generation:08d}.npz"

    def wal_path(self, generation: int) -> Path:
        return self.root / f"wal-{generation:08d}.log"

    @property
    def config_path(self) -> Path:
        return self.root / CONFIG_NAME

    @property
    def current_path(self) -> Path:
        return self.root / CURRENT_NAME

    def exists(self) -> bool:
        return self.current_path.exists()

    # -- config ------------------------------------------------------------

    def write_config(self, config: dict) -> None:
        payload = dict(config)
        payload["format"] = CONFIG_FORMAT
        payload["version"] = CONFIG_VERSION
        self.root.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        replace_synced(self.config_path, text)

    def read_config(self) -> dict:
        try:
            config = json.loads(self.config_path.read_text())
        except OSError as exc:
            raise WALError(
                f"{self.root} is not a durable database (no {CONFIG_NAME}): {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise WALError(f"{self.config_path}: corrupt config: {exc}") from exc
        if not isinstance(config, dict):
            raise WALError(f"{self.config_path}: malformed config: not a JSON object")
        if config.get("format") != CONFIG_FORMAT:
            raise WALError(
                f"{self.config_path} holds {config.get('format')!r}, "
                f"expected {CONFIG_FORMAT!r}"
            )
        return config

    # -- generation publication --------------------------------------------

    def current_generation(self) -> int:
        try:
            text = self.current_path.read_text().strip()
        except OSError as exc:
            raise WALError(
                f"{self.root}: no {CURRENT_NAME} marker ({exc})"
            ) from exc
        try:
            return int(text)
        except ValueError as exc:
            raise WALError(
                f"{self.current_path}: corrupt generation marker {text!r}"
            ) from exc

    def publish(self, generation: int) -> None:
        """Atomically repoint ``CURRENT`` (:func:`replace_synced`)."""
        replace_synced(self.current_path, f"{generation}\n")

    # -- housekeeping ------------------------------------------------------

    def generations_on_disk(self) -> list[int]:
        """Every generation with a snapshot archive present, ascending."""
        found = []
        for path in self.root.glob("snapshot-*.npz"):
            stem = path.stem.split("-")[-1]
            if stem.isdigit():
                found.append(int(stem))
        return sorted(found)

    def wal_generations_on_disk(self) -> list[int]:
        found = []
        for path in self.root.glob("wal-*.log"):
            stem = path.stem.split("-")[-1]
            if stem.isdigit():
                found.append(int(stem))
        return sorted(found)

    def retire(self, *, published: int, keep_generations: int) -> list[Path]:
        """Delete snapshots and WAL segments older than the keep window.

        The window is the *keep_generations* most recent published
        generations: with ``keep_generations=2`` and ``published=5``,
        snapshot/wal 4 and 5 survive and everything ≤3 is removed.  The
        WAL floor matches the snapshot floor so every retained snapshot
        can still replay its full chain.
        """
        floor = published - max(keep_generations, 1) + 1
        removed = []
        for generation in self.generations_on_disk():
            if generation < floor:
                path = self.snapshot_path(generation)
                path.unlink(missing_ok=True)
                removed.append(path)
        for generation in self.wal_generations_on_disk():
            if generation < floor:
                path = self.wal_path(generation)
                path.unlink(missing_ok=True)
                removed.append(path)
        if removed:
            fsync_dir(self.root)
            registry().counter("wal.segments_retired").inc(len(removed))
        return removed

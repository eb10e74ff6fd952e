"""One schema for every ``BENCH_*.json`` file.

BENCH_PR2/PR3/PR7 drifted in field names and shape (per-suite timing
keys).  This module pins the output down:

* a bench file is ``{"schema": "repro-bench/1", "suite": ..., "seed":
  ..., "label": ..., "records": [...]}``,
* every record is a flat JSON object with a non-empty ``op``, optional
  ``backend``/``n``/``params``, any number of ``*_seconds`` timings
  (finite, non-negative) and optional ``speedup``-style ratios (finite,
  positive),
* :func:`validate_records` is run by the bench CLI *before* anything is
  written, so a malformed record aborts the run instead of landing in
  the repository,
* :func:`load_bench_files` reads the pinned format and
  :func:`render_report` tabulates any number of files (``repro bench
  report``) for trajectory tracking.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.exceptions import ReproError

__all__ = [
    "SCHEMA_ID",
    "validate_records",
    "write_bench",
    "load_bench_files",
    "render_report",
]

SCHEMA_ID = "repro-bench/1"

_SCALARS = (str, int, float, bool, type(None))


def _check_scalar(errors: list[str], where: str, key: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        if not isinstance(value, _SCALARS):
            errors.append(f"{where}: field {key!r} is not a JSON scalar")
        return
    if isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{where}: field {key!r} is not finite ({value!r})")


def validate_records(records) -> list[str]:
    """All schema violations in *records* (empty list == valid)."""
    errors: list[str] = []
    if not isinstance(records, list):
        return [f"records must be a list, got {type(records).__name__}"]
    for i, record in enumerate(records):
        where = f"record {i}"
        if not isinstance(record, dict):
            errors.append(f"{where}: not an object")
            continue
        op = record.get("op")
        if not isinstance(op, str) or not op:
            errors.append(f"{where}: missing or empty 'op'")
        else:
            where = f"record {i} ({op})"
        backend = record.get("backend")
        if backend is not None and not isinstance(backend, str):
            errors.append(f"{where}: 'backend' must be a string")
        n = record.get("n")
        if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 0):
            errors.append(f"{where}: 'n' must be a non-negative integer")
        for key, value in record.items():
            if key == "params" and isinstance(value, dict):
                for pk, pv in value.items():
                    _check_scalar(errors, where, f"params.{pk}", pv)
                continue
            _check_scalar(errors, where, key, value)
            if key == "seconds" or key.endswith("_seconds"):
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(float(value))
                    or value < 0
                ):
                    errors.append(
                        f"{where}: timing {key!r} must be a finite "
                        f"non-negative number, got {value!r}"
                    )
            if key == "speedup" or key.endswith("_speedup"):
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(float(value))
                    or value <= 0
                ):
                    errors.append(
                        f"{where}: ratio {key!r} must be a finite "
                        f"positive number, got {value!r}"
                    )
    return errors


def write_bench(
    path: str | Path,
    records: list[dict],
    *,
    suite: str,
    seed: int | None = None,
    label: str | None = None,
) -> Path:
    """Validate *records* and write one schema-pinned bench file.

    Raises :class:`ReproError` (nothing is written) when any record
    violates the schema — the CLI runs every suite through here.
    """
    errors = validate_records(records)
    if errors:
        detail = "; ".join(errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        raise ReproError(f"bench output failed schema validation: {detail}{more}")
    payload = {
        "schema": SCHEMA_ID,
        "suite": suite,
        "seed": seed,
        "label": label,
        "records": records,
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_bench_files(paths) -> list[tuple[Path, dict, list[dict]]]:
    """Read bench files as ``(path, meta, records)`` triples.

    A file that is not a ``{"schema": ..., "records": [...]}`` document
    raises :class:`ReproError`.
    """
    out: list[tuple[Path, dict, list[dict]]] = []
    for path in paths:
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ReproError(f"{path}: unreadable bench file: {exc}") from exc
        if not (isinstance(payload, dict) and "records" in payload):
            raise ReproError(
                f"{path}: not a bench file (expected an object with 'records')"
            )
        meta = {k: v for k, v in payload.items() if k != "records"}
        records = payload["records"]
        if not isinstance(records, list) or not all(
            isinstance(r, dict) for r in records
        ):
            raise ReproError(f"{path}: bench records must be a list of objects")
        out.append((path, meta, records))
    return out


def _primary_timing(record: dict) -> tuple[str, float] | None:
    """The most representative timing column for the report row."""
    preferred = (
        "batched_seconds",
        "core_seconds",
        "approx_seconds",
        "seconds",
    )
    for key in preferred:
        value = record.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return key, float(value)
    for key in sorted(record):
        if key == "seconds" or key.endswith("_seconds"):
            value = record[key]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return key, float(value)
    return None


def render_report(entries) -> str:
    """Tabulate ``load_bench_files`` output: one line per record."""
    lines: list[str] = []
    header = (
        f"{'file':28} {'op':24} {'backend':8} {'n':>8} "
        f"{'timing':>24} {'speedup':>8}  extra"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for path, meta, records in entries:
        suite = meta.get("suite") or meta.get("schema") or "?"
        lines.append(f"{path.name}  [{suite}, seed={meta.get('seed')}]")
        for record in records:
            op = str(record.get("op", "?"))
            backend = str(record.get("backend") or "-")
            n = record.get("n")
            timing = _primary_timing(record)
            timing_text = f"{timing[1]:.4f}s ({timing[0]})" if timing else "-"
            speedup = record.get("speedup")
            speedup_text = (
                f"{speedup:.2f}x"
                if isinstance(speedup, (int, float))
                and not isinstance(speedup, bool)
                else "-"
            )
            extras = []
            for key in ("recall", "reduction", "budget", "queries", "skipped"):
                if key in record:
                    extras.append(f"{key}={record[key]}")
            lines.append(
                f"{'':28} {op:24} {backend:8} "
                f"{n if n is not None else '-':>8} "
                f"{timing_text:>24} {speedup_text:>8}  {' '.join(extras)}"
            )
    return "\n".join(lines)

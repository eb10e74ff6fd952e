"""Structured JSON-lines event sink for traces and telemetry.

Every record is one JSON object per line with at least an ``event``
field (``span_start``, ``span_end``, ``query``, ``ingest``, ...) and a
wall-clock ``ts``.  A process either owns a sink (the CLI configures one
for ``--trace FILE``) and writes records straight to it, or buffers
records in the metrics registry; worker-process buffers travel back to
the parent inside registry snapshots and are flushed through the
parent's sink (see :func:`repro.obs.merge_worker_snapshot`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.obs import metrics, tracectx

#: How :class:`EventSink` treats an existing file at its path.
SINK_MODES = ("append", "truncate", "rotate")


class EventSink:
    """An append-only JSON-lines file of observability events.

    Owned by exactly one process: forked pool workers inherit the
    object but :func:`dispatch` routes their records into the worker's
    registry buffer instead (writing through an inherited shared file
    descriptor would interleave/clobber records).  Line-buffered, so a
    fork never duplicates half-flushed parent output into children.

    *mode* governs an existing file at *path*: ``"append"`` (default)
    continues after its last record — two CLI invocations sharing one
    ``--trace FILE`` both survive; ``"truncate"`` starts the file over
    (the pre-PR-9 behaviour); ``"rotate"`` moves the old file to
    ``<path>.1`` (replacing any previous ``.1``) and starts fresh.
    """

    def __init__(self, path: str | Path, mode: str = "append"):
        if mode not in SINK_MODES:
            raise ValueError(f"sink mode must be one of {SINK_MODES}, got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if mode == "rotate" and self.path.exists():
            self.path.replace(self.path.with_name(self.path.name + ".1"))
        self._handle = open(
            self.path,
            "a" if mode == "append" else "w",
            encoding="utf-8",
            buffering=1,
        )
        self.owner_pid = os.getpid()
        self.written = 0

    def write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, default=str) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


_sink: EventSink | None = None


def configure_sink(path: str | Path, mode: str = "append") -> EventSink:
    """Open (replacing any previous) trace sink at *path*."""
    global _sink
    if _sink is not None:
        _sink.close()
    _sink = EventSink(path, mode=mode)
    return _sink


def close_sink() -> None:
    global _sink
    if _sink is not None:
        _sink.close()
        _sink = None


def dispatch(record: dict) -> None:
    """Route a ready-made record to the sink, or buffer it.

    Only the process that configured the sink writes to it; a forked
    worker that inherited the module state buffers into its own
    registry, from which :func:`repro.obs.merge_worker_snapshot`
    re-dispatches in the parent.
    """
    if _sink is not None and _sink.owner_pid == os.getpid():
        _sink.write(record)
    else:
        metrics.registry().buffer_event(record)


def emit(event: str, **fields) -> None:
    """Emit a structured telemetry event (no-op while obs is disabled).

    Records are stamped with the current trace id (when a trace context
    is installed) and the emitting pid, so traces merged across worker
    processes keep their provenance.
    """
    if not metrics.enabled():
        return
    record = {"event": event, "ts": time.time(), "pid": os.getpid(), **fields}
    trace_id = tracectx.current_trace_id()
    if trace_id is not None and "trace" not in record:
        record["trace"] = trace_id
    dispatch(record)

"""Trace-file post-processing: causal trees and Chrome trace export.

A ``--trace FILE`` run leaves a JSON-lines file of ``span_start`` /
``span_end`` / ``query`` / ... records, possibly produced by several
processes (pool workers buffer events; the parent re-dispatches them
into its sink).  This module reassembles those flat records:

* :func:`assemble_tree` rebuilds the causal span tree from the
  ``id``/``parent`` edges.  Because the CLI opens one root span per
  command and :mod:`repro.parallel` propagates the submitting span into
  every worker, a whole pooled run — parent and workers —
  reassembles into a *single* rooted tree.
* :func:`chrome_trace` renders the records as Chrome trace-event JSON
  (the ``about:tracing`` / Perfetto format): each completed span
  becomes a ``ph:"X"`` complete event on its originating process's
  track, every other record an instant event.  ``repro obs export``
  is the CLI entry point.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["assemble_tree", "chrome_trace", "load_trace"]


def load_trace(path: str | Path) -> list[dict]:
    """Parse a JSON-lines trace file (blank lines skipped)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _span_pid(record: dict) -> int:
    """Originating process of a span: span ids are ``<pid>-<serial>``."""
    span_id = record.get("id", "")
    try:
        return int(str(span_id).split("-", 1)[0])
    except ValueError:
        return int(record.get("pid", 0))


def assemble_tree(records: list[dict]) -> dict:
    """Rebuild the span tree: ``{"roots": [ids], "nodes": {id: node}}``.

    Each node is the ``span_end`` record plus a ``children`` list (in
    record order).  A span whose parent never completed in this trace
    (or has ``parent: null``) is a root.  ``trace_ids`` collects the
    distinct trace ids seen, so callers can assert a run produced one
    coherent trace.
    """
    nodes: dict[str, dict] = {}
    order: list[str] = []
    for record in records:
        if record.get("event") != "span_end":
            continue
        node = dict(record)
        node["children"] = []
        nodes[record["id"]] = node
        order.append(record["id"])
    roots: list[str] = []
    for span_id in order:
        parent = nodes[span_id].get("parent")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(span_id)
        else:
            roots.append(span_id)
    trace_ids = sorted(
        {r["trace"] for r in records if "trace" in r and r["trace"] is not None}
    )
    return {"roots": roots, "nodes": nodes, "trace_ids": trace_ids}


def chrome_trace(records: list[dict]) -> dict:
    """Render trace records as Chrome trace-event JSON.

    ``span_end`` records (which carry both the end wall-clock ``ts``
    and the measured ``seconds``) become complete events: ``ts`` is the
    start in microseconds, ``dur`` the duration.  Every non-span record
    becomes a process-scoped instant event, so queries and ingests show
    up as markers on the same timeline.
    """
    events = []
    for record in records:
        event = record.get("event")
        if event == "span_start":
            continue  # the span_end carries the full interval
        if event == "span_end":
            seconds = float(record.get("seconds", 0.0))
            end_ts = float(record.get("ts", 0.0))
            args = dict(record.get("attrs") or {})
            for key in ("id", "parent", "trace"):
                if record.get(key) is not None:
                    args[key] = record[key]
            pid = _span_pid(record)
            events.append(
                {
                    "ph": "X",
                    "name": record.get("name", "span"),
                    "cat": "span",
                    "ts": (end_ts - seconds) * 1e6,
                    "dur": seconds * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
        else:
            pid = int(record.get("pid", 0))
            args = {
                k: v for k, v in record.items() if k not in ("event", "ts", "pid")
            }
            events.append(
                {
                    "ph": "i",
                    "name": event or "event",
                    "cat": "event",
                    "s": "p",
                    "ts": float(record.get("ts", 0.0)) * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}

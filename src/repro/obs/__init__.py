"""``repro.obs`` — the unified observability layer.

The paper's entire efficiency argument (§5.2, Table 2) rests on measured
counters: page accesses, candidate counts, filter selectivity under the
extended-centroid lower bound.  This package turns that evaluation
methodology into a first-class capability:

* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and bounded-reservoir histograms with exact cross-process
  merging,
* :mod:`repro.obs.spans` — nestable wall-time spans
  (``with span("refine", k=7): ...``) feeding latency histograms and a
  causal trace,
* :mod:`repro.obs.events` — a structured JSON-lines sink for per-query
  and per-ingest telemetry (``--trace FILE``),
* :mod:`repro.obs.report` — merging/validation/rendering behind
  ``repro stats``.

Everything is a cheap no-op until :func:`enable` is called (the CLI
does so for ``--trace``/``--metrics``).  Worker processes record into
their own registry under :func:`capture_deltas`; the parent folds the
returned snapshots back with :func:`merge_worker_snapshot`, so
``--jobs`` runs aggregate exactly like serial ones.
"""

from __future__ import annotations

from repro.obs.events import (
    close_sink,
    configure_sink,
    dispatch,
    emit,
)
from repro.obs.metrics import (
    MetricsRegistry,
    capture_deltas,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    registry,
)
from repro.obs.spans import NULL_SPAN, Span, reset_stack, span
from repro.obs.tracectx import (
    clear_trace_context,
    current_trace_id,
    new_trace_id,
    set_trace_context,
)

__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "capture_deltas",
    "clear_trace_context",
    "close_sink",
    "configure_sink",
    "counter",
    "current_trace_id",
    "disable",
    "dispatch",
    "emit",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "merge_worker_snapshot",
    "new_trace_id",
    "registry",
    "reset_stack",
    "set_trace_context",
    "span",
]


def merge_worker_snapshot(snap: dict | None) -> None:
    """Fold a worker's :func:`capture_deltas` snapshot into this process.

    Instruments merge into the registry (counters and histogram totals
    sum exactly); events the worker buffered are re-dispatched here, so
    they land in the parent's trace sink in worker-completion order.
    """
    if not snap:
        return
    registry().merge(snap)
    for record in snap.get("events", ()):
        dispatch(record)

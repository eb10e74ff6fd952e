"""Nestable wall-time spans: ``with span("refine", k=7): ...``.

A span measures the wall time of a code region, knows its parent (spans
nest through a thread-local stack), feeds a ``span.<name>.seconds``
histogram in the metrics registry, and emits paired
``span_start``/``span_end`` trace events — so one construct yields
latency histograms for ``repro stats`` *and* a causally nested trace for
``--trace FILE``.

While observability is disabled, ``span()`` yields a shared null span
and does nothing else; pass ``force=True`` to always measure time (used
where the caller reads the duration itself, e.g. the phase timings of
the wide query event) without touching the registry or the trace unless
observability is enabled.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

from repro.obs import metrics, tracectx
from repro.obs.events import dispatch

_local = threading.local()
_id_lock = threading.Lock()
_next_id = 0


def _stack() -> list:
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        return _local.stack


def reset_stack() -> None:
    """Drop any open spans inherited by a forked worker process.

    A pool worker forked mid-span inherits the parent's (thread-local)
    span stack; parenting worker spans to those stale entries would be
    wrong once the pool is reused for a later batch.  Workers call this
    before installing their propagated trace context, so their spans
    parent to the *propagated* submitting span instead.
    """
    _local.stack = []


def _new_span_id() -> str:
    """Unique across threads and (fork-spawned) worker processes."""
    global _next_id
    with _id_lock:
        _next_id += 1
        serial = _next_id
    return f"{os.getpid()}-{serial}"


class Span:
    """One timed region; ``seconds`` is valid after the ``with`` block."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start", "seconds")

    def __init__(self, name: str, attrs: dict, span_id: str, parent_id: str | None):
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.seconds = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes after entry (e.g. result counts)."""
        self.attrs.update(attrs)


class _NullSpan:
    __slots__ = ()
    seconds = 0.0

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


@contextmanager
def span(name: str, /, force: bool = False, **attrs):
    """Time a region; record histogram + trace events when enabled.

    Parameters
    ----------
    name:
        Span name (positional-only, so ``name=...`` is a free attribute
        key); the latency histogram is ``span.<name>.seconds``.
    force:
        Measure wall time even while observability is disabled (the
        span is still invisible to registry and trace).
    attrs:
        Arbitrary JSON-able attributes stored on the ``span_end`` event.
    """
    recording = metrics.enabled()
    if not (recording or force):
        yield NULL_SPAN
        return
    stack = _stack()
    parent_id = None
    if recording:
        # Nesting is thread-local; a span opening on an empty stack
        # parents to the cross-process span propagated by pool_map (if
        # any), which is what stitches worker traces into one tree.
        parent_id = stack[-1].span_id if stack else tracectx.propagated_parent()
    record = Span(name, dict(attrs), _new_span_id() if recording else "", parent_id)
    if recording:
        stack.append(record)
        start_event = {
            "event": "span_start",
            "ts": time.time(),
            "id": record.span_id,
            "name": name,
            "parent": parent_id,
        }
        trace_id = tracectx.current_trace_id()
        if trace_id is not None:
            start_event["trace"] = trace_id
        dispatch(start_event)
    record.start = time.perf_counter()
    try:
        yield record
    finally:
        record.seconds = time.perf_counter() - record.start
        if recording:
            stack.pop()
            metrics.histogram(f"span.{name}.seconds").observe(record.seconds)
            end_event = {
                "event": "span_end",
                "ts": time.time(),
                "id": record.span_id,
                "name": name,
                "parent": parent_id,
                "seconds": record.seconds,
                "attrs": record.attrs,
            }
            trace_id = tracectx.current_trace_id()
            if trace_id is not None:
                end_event["trace"] = trace_id
            dispatch(end_event)

"""Propagated trace contexts: one causal tree per CLI command.

A *trace context* is the pair ``(trace_id, parent_span_id)``.  The CLI
opens one root context per command (every span and event of the run
carries the same ``trace`` field); :func:`repro.parallel.pool_map`
captures the caller's context — including the currently open span — and
re-installs it inside each worker, so spans recorded in a pool worker
parent to the span that submitted the work.  A scattered parallel
ingest or query batch therefore reassembles into a single rooted tree
(``repro obs export`` renders it as Chrome trace-event JSON).

The context is deliberately process-global, not thread-local: the unit
of tracing is one CLI command / one query batch, and worker processes
install exactly one context for the task they are running.  Span
*nesting* stays thread-local (see :mod:`repro.obs.spans`); the context
only supplies the trace id and the cross-process parent for spans that
open on an empty stack.
"""

from __future__ import annotations

import os
import time

__all__ = [
    "clear_trace_context",
    "current_trace_id",
    "new_trace_id",
    "propagated_parent",
    "propagation",
    "set_trace_context",
]

_trace_id: str | None = None
_parent_span_id: str | None = None


def new_trace_id() -> str:
    """A trace id unique across processes and time (not a secret)."""
    return f"{os.getpid():x}-{time.time_ns():x}"


def current_trace_id() -> str | None:
    return _trace_id


def propagated_parent() -> str | None:
    """The cross-process parent span id for spans opening on an empty
    stack (installed by a pool worker from its propagated context)."""
    return _parent_span_id


def set_trace_context(trace_id: str | None, parent_span_id: str | None = None) -> None:
    global _trace_id, _parent_span_id
    _trace_id = trace_id
    _parent_span_id = parent_span_id


def clear_trace_context() -> None:
    set_trace_context(None, None)


def propagation() -> tuple[str | None, str | None]:
    """The ``(trace_id, parent_span_id)`` pair to ship to a worker.

    The parent is the caller's innermost open span when there is one
    (so worker spans nest under the submitting span), falling back to
    the already-propagated parent (nested fan-out).
    """
    from repro.obs import spans

    stack = spans._stack()
    parent = stack[-1].span_id if stack else _parent_span_id
    return _trace_id, parent

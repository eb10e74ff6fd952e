"""The one ordered fan-out of every batch path.

Every batch site — ``extract_many``, ``Pipeline.process_parts``/
``process_mesh_directory``, ``pairwise_matrix`` and the sharded
``knn_query_many`` — makes one :func:`pool_map` call.  Below two
workers it runs the tasks in-process; otherwise every site shares one
lazily created :class:`~concurrent.futures.ProcessPoolExecutor`
instead of paying worker start-up per call.  The pool is recreated only
when a caller asks for more workers than it currently has or after a
worker died (a broken pool is dropped, never handed out again), and shut
down at interpreter exit.

All helpers keep results in submission order, so parallel runs are
deterministic and bit-identical to serial ones.  :func:`pool_map` is the
observability-aware fan-out: while :mod:`repro.obs` is enabled, each
worker call runs under a fresh metric capture whose snapshot travels
back with the result and is merged into the parent registry — counter
totals of a ``--jobs`` run therefore equal the serial run exactly.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.exceptions import ReproError

_pool: ProcessPoolExecutor | None = None
_pool_size = 0


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` argument to a concrete worker count.

    ``None`` and ``0`` mean serial (1); negative values mean "all
    cores" (``os.cpu_count()``).
    """
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        return os.cpu_count() or 1
    return int(n_jobs)


def shared_pool(n_jobs: int) -> ProcessPoolExecutor:
    """The shared executor, grown to at least *n_jobs* workers."""
    global _pool, _pool_size
    if n_jobs < 2:
        raise ReproError("shared_pool needs n_jobs >= 2; serial paths skip the pool")
    if _pool is None or _pool_size < n_jobs:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = ProcessPoolExecutor(max_workers=n_jobs)
        _pool_size = n_jobs
    return _pool


def _captured_task(payload):
    """Pool work unit: run one task, optionally under metric capture.

    Module-level so it pickles; returns ``(result, snapshot_or_None)``.
    Exceptions propagate unchanged (their capture snapshot is discarded
    — the batch is aborting anyway).

    The payload carries the submitting process's trace context
    ``(trace_id, parent_span_id)``: the worker clears any span stack it
    inherited via fork and installs that context for the duration of
    the task, so every span it records carries the batch's trace id and
    parents (across the process boundary) to the span that submitted
    the work — the whole fan-out reassembles into one tree.
    """
    capture, trace_ctx, task_fn, task = payload
    if not capture:
        return task_fn(task), None
    from repro.obs import capture_deltas, reset_stack
    from repro.obs.tracectx import clear_trace_context, set_trace_context

    with capture_deltas() as holder:
        reset_stack()
        set_trace_context(*trace_ctx)
        try:
            result = task_fn(task)
        finally:
            # Pool workers are reused: never leak one batch's context
            # into the next.
            clear_trace_context()
    return result, holder.snapshot


def pool_map(task_fn, tasks: list, n_jobs: int, chunksize: int = 1) -> list:
    """``[task_fn(task) for task in tasks]``, in-process below two
    workers, otherwise over the shared pool with worker-metrics merging:
    results come back in submission order; while observability is
    enabled, each worker call's metric/event snapshot is folded into
    this process's registry as results are consumed.  One task still
    runs in a worker, on a pool of at least two.
    """
    jobs = resolve_n_jobs(n_jobs)
    if jobs < 2 or not tasks:
        return [task_fn(task) for task in tasks]
    from repro.obs import enabled as obs_enabled
    from repro.obs import merge_worker_snapshot
    from repro.obs.tracectx import propagation

    pool = shared_pool(max(2, min(jobs, len(tasks))))
    capture = obs_enabled()
    trace_ctx = propagation() if capture else (None, None)
    payloads = [(capture, trace_ctx, task_fn, task) for task in tasks]
    results = []
    try:
        for result, snapshot in pool.map(_captured_task, payloads, chunksize=chunksize):
            if snapshot is not None:
                merge_worker_snapshot(snapshot)
            results.append(result)
    except BrokenProcessPool:
        # A worker died: this batch fails, the next call starts a fresh pool.
        _shutdown()
        raise
    return results


def _shutdown() -> None:
    global _pool, _pool_size
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_size = 0


atexit.register(_shutdown)

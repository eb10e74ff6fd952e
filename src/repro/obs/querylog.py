"""Wide-event query log: one structured record per similarity query.

Aggregate counters answer "how is the system doing"; this module
answers "why was *this* query slow".  Every query through
:class:`~repro.core.queries.FilterRefineEngine` (and the approximate
tier) funnels through :func:`record_query`, which

* always folds the query's :class:`~repro.core.queries.QueryStats`
  into the registry counters (exactly the pre-PR-9 behaviour), and
* emits one *wide event* — a single ``query`` record joining phase
  timings (filter / Hamming shortlist / exact refine), engine stats
  (candidates ranked, pruned, pruned by the assignment bound, exact
  computations, overshoot, shortlist size), mode, database version and
  k — subject to sampling.

Sampling is deterministic (a fractional accumulator, no randomness —
the repo's seeding discipline extends to telemetry): at rate *r*,
exactly ``floor(m * r)``-ish of every ``m`` queries are logged, in a
reproducible pattern.  A query whose total latency reaches the
``slow_ms`` threshold is *always* captured, regardless of the sampling
rate, and carries a full ``explain`` payload (per-phase breakdown,
pruning power, engine configuration) so the one query that mattered is
never the one that was sampled away.

Context fields (mode, database version, shard count) are contributed by outer layers through the thread-local
:func:`query_context` stack; the innermost emission point never needs
to know who is calling it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs import metrics
from repro.obs.events import emit

__all__ = [
    "QueryLogConfig",
    "config",
    "configure",
    "current_context",
    "query_context",
    "record_query",
    "reset",
]


@dataclass
class QueryLogConfig:
    """Sampling policy for wide query events.

    ``sample_rate`` is the fraction of queries logged (1.0 = every
    query; 0.0 = none).  ``slow_ms`` is the always-capture latency
    threshold in milliseconds (``None`` disables slow capture);
    ``slow_ms=0`` therefore captures everything, which is how tests
    fire the slow path deterministically.
    """

    sample_rate: float = 1.0
    slow_ms: float | None = None


_config = QueryLogConfig()
_lock = threading.Lock()
_sample_acc = 0.0
_ctx = threading.local()


def configure(sample_rate: float = 1.0, slow_ms: float | None = None) -> QueryLogConfig:
    """Install a sampling policy (CLI: ``--sample`` / ``--slow-ms``)."""
    global _config, _sample_acc
    if not 0.0 <= sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
    if slow_ms is not None and slow_ms < 0:
        raise ValueError(f"slow_ms must be non-negative, got {slow_ms}")
    with _lock:
        _config = QueryLogConfig(sample_rate=sample_rate, slow_ms=slow_ms)
        _sample_acc = 0.0
    return _config


def config() -> QueryLogConfig:
    return _config


def reset() -> None:
    """Restore defaults (tests; the CLI's end-of-run cleanup)."""
    global _config, _sample_acc
    with _lock:
        _config = QueryLogConfig()
        _sample_acc = 0.0
    _ctx.stack = []


def _should_sample() -> bool:
    """Deterministic rate limiter: at rate r, the accumulator crosses
    1.0 on a fixed, reproducible subsequence of queries."""
    global _sample_acc
    rate = _config.sample_rate
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    with _lock:
        _sample_acc += rate
        if _sample_acc >= 1.0:
            _sample_acc -= 1.0
            return True
        return False


# -- context ------------------------------------------------------------------


def _stack() -> list:
    try:
        return _ctx.stack
    except AttributeError:
        _ctx.stack = []
        return _ctx.stack


@contextmanager
def query_context(**fields):
    """Contribute fields to every wide record emitted inside the block.

    Frames nest (inner frames win key conflicts); the database layer
    uses this to stamp mode and version without threading them through
    every engine signature.
    """
    stack = _stack()
    stack.append(fields)
    try:
        yield
    finally:
        stack.pop()


def current_context() -> dict:
    merged: dict = {}
    for frame in _stack():
        merged.update(frame)
    return merged


# -- emission -----------------------------------------------------------------


def record_query(
    kind: str,
    stats: dict,
    n: int,
    *,
    seconds: float = 0.0,
    refine_seconds: float = 0.0,
    blocks: int = 0,
    **extra,
) -> None:
    """Account one query and (subject to sampling) emit its wide event.

    Parameters
    ----------
    kind:
        Query kind (``knn``, ``range``, ``scan``, ``knn_subset``,
        ``approx_knn``); a sharded database's queries log these too.
    stats:
        The flat ``QueryStats.as_dict()`` mapping — copied into the
        record verbatim, so the event agrees field-for-field with what
        the caller got back.
    n:
        Database size at query time (denominator of selectivity).
    seconds / refine_seconds / blocks:
        The engine's measured wall time, the part of it spent in exact
        refinement, and the number of refine blocks.  One rule for every
        kind: the total is *seconds* plus the ``shortlist_seconds``
        context field (the approx engine's measured sketch + Hamming
        shortlist, which runs before the engine's query; 0 elsewhere),
        and the filter phase is the total minus refinement.
    extra:
        Per-kind fields (k, epsilon, result count, ...).
    """
    reg = metrics.registry()
    if not reg.enabled:
        return
    selectivity = stats.get("exact_computations", 0) / n if n else 0.0
    reg.counter("query.count").inc()
    reg.count_many("query.", stats)
    reg.histogram("query.selectivity").observe(selectivity)

    fields = current_context()
    fields.update(extra)

    total_seconds = seconds + fields.pop("shortlist_seconds", 0.0)
    filter_seconds = max(total_seconds - refine_seconds, 0.0)
    reg.histogram("query.seconds").observe(total_seconds)

    slow = (
        _config.slow_ms is not None and total_seconds * 1000.0 >= _config.slow_ms
    )
    sampled = _should_sample()
    if not (sampled or slow):
        reg.counter("querylog.dropped").inc()
        return
    reg.counter("querylog.sampled").inc()

    record = {
        "kind": kind,
        "n": n,
        **stats,
        "selectivity": selectivity,
        "seconds": total_seconds,
        "filter_seconds": filter_seconds,
        "refine_seconds": refine_seconds,
        "blocks": blocks,
        **fields,
    }
    if slow:
        reg.counter("querylog.slow").inc()
        record["slow"] = True
        record["explain"] = _explain(record, stats, n)
    emit("query", **record)


def _explain(record: dict, stats: dict, n: int) -> dict:
    """The full payload attached to slow-query captures: where the time
    went, how well the filter cascade worked, and under what policy."""
    total = record["seconds"] or 0.0
    phases = {
        "filter_seconds": record["filter_seconds"],
        "refine_seconds": record["refine_seconds"],
    }
    refined = stats.get("exact_computations", 0)
    pruned = stats.get("pruned", 0)
    bound_pruned = stats.get("bound_pruned", 0)
    return {
        "slow_ms_threshold": _config.slow_ms,
        "sample_rate": _config.sample_rate,
        "phases": phases,
        "phase_fractions": {
            name.replace("_seconds", ""): (value / total if total else 0.0)
            for name, value in phases.items()
        },
        "pruning_power": pruned / n if n else 0.0,
        # Where the objects went: the centroid filter (in approx mode,
        # the Hamming shortlist, then the centroid filter within it)
        # keeps the pruned ones out of the cost tensor, except those
        # the assignment bound keeps out of the solver.
        "funnel": {
            "objects": n,
            "ranked": stats.get("candidates_ranked", 0),
            "centroid_pruned": pruned - bound_pruned,
            "bound_pruned": bound_pruned,
            "refined": refined,
        },
        "refined_per_block": (refined / record["blocks"]) if record["blocks"] else 0.0,
        "overshoot": stats.get("extra_refinements", 0),
    }

"""Process-wide metrics registry: counters, gauges, bounded histograms.

The registry is the accumulation point of the observability layer
(:mod:`repro.obs`): hot paths increment named counters, set gauges and
observe histogram samples; the CLI serializes one :meth:`snapshot` per
run and ``repro stats`` merges any number of snapshots back into a
report.  Everything is designed around two invariants:

* **Disabled means free.**  While the registry is disabled (the
  default), ``counter()``/``gauge()``/``histogram()`` return shared
  null instruments whose mutators are empty methods — instrumented hot
  paths pay an attribute check and a no-op call, nothing else, and the
  registry itself stays empty.
* **Merging is exact for counters.**  Snapshots are plain JSON-able
  dicts; merging sums counters and histogram counts/sums, so totals
  aggregated across worker processes (see :func:`capture_deltas` and
  :func:`repro.parallel.pool_map`) equal the serial run exactly.
  Histogram *quantiles* are estimates over a deterministic
  stride-sampled reservoir and merge approximately.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager

#: Reservoir size per histogram; quantiles are estimated over at most
#: this many stride-sampled observations.
DEFAULT_RESERVOIR = 256

#: Fixed histogram bucket upper bounds (seconds-oriented, but generic):
#: a geometric 1/2.5/10 ladder from a quarter millisecond to ~17 minutes.
#: Unlike the reservoir, bucket counts merge *exactly* across processes,
#: which is what makes them the right shape for Prometheus exposition.
DEFAULT_BUCKETS = (
    0.00025,
    0.001,
    0.0025,
    0.01,
    0.025,
    0.1,
    0.25,
    1.0,
    2.5,
    10.0,
    25.0,
    100.0,
    250.0,
    1000.0,
)

#: Events buffered in the registry when no trace sink is configured
#: (worker processes); older events are kept, overflow is counted.
MAX_BUFFERED_EVENTS = 10_000


class Counter:
    """A monotonically growing named total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Exact count/sum/min/max plus a bounded, deterministic reservoir.

    The reservoir keeps every ``stride``-th observation; when it
    overflows, every other sample is dropped and the stride doubles —
    no randomness, so repeated runs produce identical snapshots.

    Alongside the reservoir, every observation lands in one of the
    fixed cumulative-style buckets (``bounds[i]`` is the inclusive
    upper edge; values above the last bound only count toward the
    implicit ``+Inf`` bucket, i.e. ``count``).  Bucket counts are exact
    and merge exactly, so :meth:`MetricsRegistry.expose_prometheus` can
    render true OpenMetrics histograms while ``repro stats`` keeps its
    reservoir-estimated quantiles.
    """

    __slots__ = (
        "count",
        "total",
        "min",
        "max",
        "samples",
        "max_samples",
        "_stride",
        "bounds",
        "bucket_counts",
    )

    def __init__(
        self,
        max_samples: int = DEFAULT_RESERVOIR,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []
        self.max_samples = max_samples
        self._stride = 1
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * len(self.bounds)

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count % self._stride == 0:
            self.samples.append(value)
            if len(self.samples) > self.max_samples:
                self.samples = self.samples[::2]
                self._stride *= 2
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        slot = bisect_left(self.bounds, value)
        if slot < len(self.bucket_counts):
            self.bucket_counts[slot] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile from the reservoir (0 for empty)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "samples": list(self.samples),
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
        }

    def merge_dict(self, data: dict) -> None:
        count = int(data.get("count", 0))
        if not count:
            return
        self.count += count
        self.total += float(data.get("sum", 0.0))
        low, high = data.get("min"), data.get("max")
        if low is not None and low < self.min:
            self.min = float(low)
        if high is not None and high > self.max:
            self.max = float(high)
        merged = self.samples + [float(s) for s in data.get("samples", ())]
        if len(merged) > self.max_samples:
            step = -(-len(merged) // self.max_samples)
            merged = merged[::step]
        self.samples = merged
        # Bucket counts merge exactly, but only between identical
        # ladders; pre-PR-9 snapshots (no "bounds") or custom ladders
        # fall back to reservoir-only merging for this histogram.
        bounds = data.get("bounds")
        if bounds is not None and tuple(float(b) for b in bounds) == self.bounds:
            for i, n in enumerate(data.get("buckets", ())):
                self.bucket_counts[i] += int(n)


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(prefix: str, name: str) -> str:
    """Registry names are dotted (``query.knn.count``); Prometheus
    metric names allow only ``[a-zA-Z0-9_:]``."""
    return _NAME_SANITIZER.sub("_", prefix + name)


def _format_value(value: float) -> str:
    """Integers render without a trailing ``.0`` (OpenMetrics allows
    either; the bare form keeps bucket ``le`` labels readable)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Named instruments plus an event buffer for sink-less processes.

    A process normally has exactly one registry (module-level
    ``_registry``, reached through :func:`registry` and the module-level
    convenience functions); constructing private instances is useful for
    merging snapshots offline (``repro stats``).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.events: list[dict] = []
        self.dropped_events = 0

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str) -> Counter | _NullCounter:
        if not self.enabled:
            return NULL_COUNTER
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge | _NullGauge:
        if not self.enabled:
            return NULL_GAUGE
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram | _NullHistogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram())

    def count_many(self, prefix: str, values: dict) -> None:
        """Fold a flat numeric mapping into prefixed counters.

        The bridge from :meth:`~repro.core.queries.QueryStats.as_dict`
        into the registry.
        """
        if not self.enabled:
            return
        for key, value in values.items():
            if isinstance(value, (int, float)):
                self.counter(f"{prefix}{key}").inc(value)

    # -- events --------------------------------------------------------------

    def buffer_event(self, record: dict) -> None:
        """Hold an event until a sink-owning process collects it."""
        if len(self.events) >= MAX_BUFFERED_EVENTS:
            self.dropped_events += 1
            return
        self.events.append(record)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, include_events: bool = True) -> dict:
        """A JSON-able copy of every instrument (and buffered events)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.as_dict() for k, h in sorted(self._histograms.items())
            },
            "events": list(self.events) if include_events else [],
        }

    def merge(self, snap: dict) -> None:
        """Fold a snapshot's instruments in (counters/histograms sum,
        gauges last-write-wins).  Events are *not* merged here — the
        caller routes them to the trace sink (see
        :func:`repro.obs.merge_worker_snapshot`)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snap.get("histograms", {}).items():
            histogram = self.histogram(name)
            if isinstance(histogram, Histogram):
                histogram.merge_dict(data)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self.events.clear()
            self.dropped_events = 0

    # -- exposition ------------------------------------------------------------

    def expose_prometheus(self, prefix: str = "repro_") -> str:
        """Render every instrument in OpenMetrics text format.

        Counters become ``<prefix><name>_total``, gauges plain samples,
        histograms the canonical ``_bucket{le=...}`` / ``_sum`` /
        ``_count`` triple using the exact fixed-bucket counts (the
        reservoir never leaks into exposition).  This string is what
        ``repro obs expose`` writes and what a future HTTP ``/metrics``
        endpoint will serve verbatim.
        """
        lines: list[str] = []
        for name, c in sorted(self._counters.items()):
            metric = _metric_name(prefix, name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(c.value)}")
        for name, g in sorted(self._gauges.items()):
            metric = _metric_name(prefix, name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(g.value)}")
        for name, h in sorted(self._histograms.items()):
            metric = _metric_name(prefix, name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, n in zip(h.bounds, h.bucket_counts):
                cumulative += n
                lines.append(
                    f'{metric}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {h.count}')
            lines.append(f"{metric}_sum {_format_value(h.total)}")
            lines.append(f"{metric}_count {h.count}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _registry


def enabled() -> bool:
    return _registry.enabled


def enable() -> None:
    _registry.enabled = True


def disable() -> None:
    _registry.enabled = False


def counter(name: str):
    return _registry.counter(name)


def gauge(name: str):
    return _registry.gauge(name)


def histogram(name: str):
    return _registry.histogram(name)


class _Capture:
    """Holder filled by :func:`capture_deltas` at context exit."""

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot: dict | None = None


@contextmanager
def capture_deltas():
    """Worker-side metric capture around one unit of work.

    Resets the (worker's) process registry, enables it, runs the body,
    and stores a snapshot of everything the body recorded in the yielded
    holder.  The registry is reset again afterwards so state never leaks
    between pool tasks (or from a forked parent).
    """
    holder = _Capture()
    _registry.reset()
    previous = _registry.enabled
    _registry.enabled = True
    try:
        yield holder
    finally:
        holder.snapshot = _registry.snapshot()
        _registry.reset()
        _registry.enabled = previous

"""The unified observability layer (``repro.obs``).

Covers the three invariants the layer is built on: disabled means
no-op (null instruments, empty registry), counter merging is exact
across snapshots and worker processes, and every span that opens in a
trace closes — plus the end-to-end guarantee that the telemetry the
query engine emits agrees *exactly* with the ``QueryStats``/``IOCost``
objects it returns.
"""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Histogram,
    MetricsRegistry,
    capture_deltas,
)
from repro.obs.report import (
    load_metrics,
    render_report,
    validate_counters,
    validate_trace,
)
from repro.obs.spans import NULL_SPAN, span


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with a pristine, disabled obs layer."""
    obs.close_sink()
    obs.registry().reset()
    obs.disable()
    yield
    obs.close_sink()
    obs.registry().reset()
    obs.disable()


@pytest.fixture
def enabled(tmp_path):
    """Obs enabled with a trace sink; yields the trace path."""
    trace = tmp_path / "trace.jsonl"
    obs.enable()
    obs.configure_sink(trace)
    yield trace
    obs.close_sink()


class TestRegistry:
    def test_disabled_returns_null_instruments(self):
        reg = obs.registry()
        assert reg.counter("x") is NULL_COUNTER
        assert reg.gauge("x") is NULL_GAUGE
        assert reg.histogram("x") is NULL_HISTOGRAM
        reg.counter("x").inc()
        reg.gauge("x").set(3.0)
        reg.histogram("x").observe(1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}

    def test_instruments_record_when_enabled(self):
        obs.enable()
        obs.counter("a").inc()
        obs.counter("a").inc(4)
        obs.gauge("g").set(2.5)
        obs.histogram("h").observe(1.0)
        obs.histogram("h").observe(3.0)
        snap = obs.registry().snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["sum"] == 4.0

    def test_count_many_folds_flat_mappings(self):
        obs.enable()
        obs.registry().count_many("q.", {"a": 2, "b": 3, "skip": "str"})
        obs.registry().count_many("q.", {"a": 1})
        snap = obs.registry().snapshot()
        assert snap["counters"] == {"q.a": 3, "q.b": 3}

    def test_merge_sums_counters_exactly(self):
        one = MetricsRegistry(enabled=True)
        two = MetricsRegistry(enabled=True)
        for reg, amount in ((one, 7), (two, 11)):
            reg.counter("n").inc(amount)
            for value in range(amount):
                reg.histogram("h").observe(float(value))
        one.merge(two.snapshot())
        assert one.counter("n").value == 18
        merged = one.histogram("h")
        assert merged.count == 18
        assert merged.total == sum(range(7)) + sum(range(11))

    def test_histogram_reservoir_bounded_and_deterministic(self):
        def fill():
            histogram = Histogram(max_samples=64)
            for value in range(10_000):
                histogram.observe(float(value))
            return histogram

        a, b = fill(), fill()
        assert a.count == 10_000
        assert a.total == sum(range(10_000))
        assert a.min == 0.0 and a.max == 9999.0
        assert len(a.samples) <= 64
        # No randomness anywhere: identical runs, identical snapshots.
        assert a.as_dict() == b.as_dict()
        # The stride-sampled quantile stays a sane estimate.
        assert 3000 < a.quantile(0.5) < 7000

    def test_histogram_empty_edge_cases(self):
        histogram = Histogram()
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0
        assert histogram.as_dict()["min"] is None

    def test_capture_deltas_isolates_and_snapshots(self):
        obs.enable()
        obs.counter("outer").inc(5)
        with capture_deltas() as holder:
            obs.counter("inner").inc(3)
        # The capture saw only what happened inside the block...
        assert holder.snapshot["counters"] == {"inner": 3}
        # ...and the registry is back to its pre-capture state (reset:
        # worker registries never leak between pool tasks).
        assert obs.registry().snapshot()["counters"] == {}

    def test_event_buffer_caps_and_counts_drops(self):
        from repro.obs.metrics import MAX_BUFFERED_EVENTS

        obs.enable()
        reg = obs.registry()
        for index in range(MAX_BUFFERED_EVENTS + 10):
            reg.buffer_event({"event": "x", "i": index})
        assert len(reg.events) == MAX_BUFFERED_EVENTS
        assert reg.dropped_events == 10


class TestSpans:
    def test_disabled_span_is_null(self):
        with span("anything") as record:
            assert record is NULL_SPAN
        assert obs.registry().snapshot()["histograms"] == {}

    def test_force_measures_without_recording(self):
        with span("timed", force=True) as record:
            pass
        assert record is not NULL_SPAN
        assert record.seconds >= 0.0
        # force never touches the registry while obs is disabled.
        assert obs.registry().snapshot()["histograms"] == {}

    def test_nested_spans_produce_wellformed_trace(self, enabled):
        with span("outer", depth=0):
            with span("inner", depth=1) as inner:
                inner.set(items=3)
        obs.close_sink()
        check = validate_trace(enabled)
        assert check.ok, check.errors
        assert check.spans == 2
        records = [json.loads(line) for line in enabled.read_text().splitlines()]
        starts = {r["name"]: r for r in records if r["event"] == "span_start"}
        ends = {r["name"]: r for r in records if r["event"] == "span_end"}
        assert starts["inner"]["parent"] == starts["outer"]["id"]
        assert ends["inner"]["attrs"] == {"depth": 1, "items": 3}
        assert ends["outer"]["seconds"] >= ends["inner"]["seconds"]

    def test_span_feeds_latency_histogram(self, enabled):
        for _ in range(3):
            with span("work"):
                pass
        histogram = obs.registry().histogram("span.work.seconds")
        assert histogram.count == 3

    def test_span_closes_on_exception(self, enabled):
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        obs.close_sink()
        check = validate_trace(enabled)
        assert check.ok, check.errors

    def test_name_is_a_free_attribute_key(self, enabled):
        with span("labeled", name="the-object"):
            pass
        obs.close_sink()
        records = [json.loads(line) for line in enabled.read_text().splitlines()]
        end = next(r for r in records if r["event"] == "span_end")
        assert end["attrs"] == {"name": "the-object"}


class TestEvents:
    def test_emit_is_noop_while_disabled(self):
        obs.emit("query", n=1)
        assert obs.registry().events == []

    def test_emit_buffers_without_sink(self):
        obs.enable()
        obs.emit("query", n=1)
        assert obs.registry().events[0]["event"] == "query"
        assert "ts" in obs.registry().events[0]

    def test_emit_writes_to_sink(self, enabled):
        obs.emit("ingest", ok=3)
        obs.close_sink()
        record = json.loads(enabled.read_text().splitlines()[0])
        assert record["event"] == "ingest" and record["ok"] == 3

    def test_merge_worker_snapshot_redispatches_events(self, enabled):
        snap = {
            "counters": {"extract.objects": 2},
            "events": [{"event": "worker", "ts": 0.0}],
        }
        obs.merge_worker_snapshot(snap)
        assert obs.registry().counter("extract.objects").value == 2
        obs.close_sink()
        assert '"worker"' in enabled.read_text()


class TestTraceValidation:
    def test_unclosed_span_detected(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            json.dumps({"event": "span_start", "id": "1-1", "name": "lost"}) + "\n"
        )
        check = validate_trace(trace)
        assert not check.ok
        assert "never closed" in check.errors[0]

    def test_bad_json_and_missing_event_detected(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("not json\n" + json.dumps({"no": "event"}) + "\n")
        check = validate_trace(trace)
        assert len(check.errors) == 2

    def test_orphan_span_end_detected(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            json.dumps(
                {"event": "span_end", "id": "9-9", "name": "ghost", "seconds": 0.1}
            )
            + "\n"
        )
        check = validate_trace(trace)
        assert any("without a matching span_start" in e for e in check.errors)

    def test_negative_counter_detected(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("broken").inc(-2)
        errors = validate_counters(reg)
        assert errors and "broken" in errors[0]


class TestReport:
    def test_load_metrics_merges_files_exactly(self, tmp_path):
        paths = []
        for index, amount in enumerate((3, 4)):
            reg = MetricsRegistry(enabled=True)
            reg.counter("total").inc(amount)
            path = tmp_path / f"m{index}.json"
            path.write_text(json.dumps(reg.snapshot(include_events=False)))
            paths.append(path)
        merged = load_metrics(paths)
        assert merged.counter("total").value == 7

    def test_load_metrics_rejects_garbage(self, tmp_path):
        from repro.exceptions import ReproError

        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ReproError):
            load_metrics([bad])
        with pytest.raises(ReproError):
            load_metrics([tmp_path / "missing.json"])

    def test_render_report_sections(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        reg.counter("query.count").inc(2)
        reg.histogram("span.knn.seconds").observe(0.5)
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        text = render_report(reg, [validate_trace(trace)])
        assert "query.count" in text
        assert "span.knn.seconds" in text
        assert "OK" in text


class TestStatsProtocol:
    def test_query_stats_protocol(self):
        from repro.core.queries import QueryStats

        a = QueryStats(10, 4, 6, 1, 2)
        assert a.as_dict() == {
            "candidates_ranked": 10,
            "exact_computations": 4,
            "pruned": 6,
            "extra_refinements": 1,
            "bound_pruned": 2,
        }
        assert QueryStats(**a.as_dict()) == a
        assert "refined 4/10" in str(a)
        assert "2 by the assignment bound" in str(a)

    def test_iocost_protocol(self):
        from repro.index.pages import IOCost

        a = IOCost(page_accesses=3, bytes_read=150)
        assert "3 page accesses" in str(a)


class TestEngineTelemetry:
    @pytest.fixture
    def sets(self, rng):
        return [
            rng.normal(size=(int(rng.integers(1, 6)), 6)) for _ in range(30)
        ]

    def test_query_event_agrees_exactly_with_stats(self, enabled, sets):
        from repro.core.queries import FilterRefineEngine

        engine = FilterRefineEngine(sets, capacity=5)
        _, stats = engine.knn_query(sets[0], 5)
        obs.close_sink()
        events = [json.loads(line) for line in enabled.read_text().splitlines()]
        queries = [e for e in events if e["event"] == "query"]
        assert len(queries) == 1
        event = queries[0]
        for key, value in stats.as_dict().items():
            assert event[key] == value
        assert event["selectivity"] == stats.exact_computations / len(sets)
        assert event["kind"] == "knn" and event["k"] == 5
        # The registry counters carry the same totals.
        reg = obs.registry()
        assert reg.counter("query.exact_computations").value == stats.exact_computations
        assert reg.counter("query.count").value == 1

    def test_knn_many_counts_every_query(self, enabled, sets):
        from repro.db import SimilarityDatabase

        db = SimilarityDatabase(capacity=5)
        for oid, vectors in enumerate(sets):
            db.add(oid, vectors)
        results = db.knn_query_many(sets[:4], 3)
        assert obs.registry().counter("query.count").value == 4
        total = sum(stats.exact_computations for _, stats in results)
        assert obs.registry().counter("query.exact_computations").value == total
        obs.close_sink()
        check = validate_trace(enabled)
        assert check.ok, check.errors
        assert check.by_event["query"] == 4

    def test_range_and_scan_queries_traced(self, enabled, sets):
        from repro.core.queries import FilterRefineEngine

        engine = FilterRefineEngine(sets, capacity=5)
        engine.range_query(sets[0], 2.0)
        engine.knn_sequential(sets[1], 3)
        obs.close_sink()
        events = [json.loads(line) for line in enabled.read_text().splitlines()]
        kinds = [e["kind"] for e in events if e["event"] == "query"]
        assert kinds == ["range", "scan"]
        names = {e["name"] for e in events if e["event"] == "span_start"}
        assert {"query.range", "query.scan"} <= names

    def test_disabled_engine_records_nothing(self, sets):
        from repro.core.queries import FilterRefineEngine

        engine = FilterRefineEngine(sets, capacity=5)
        engine.knn_query(sets[0], 3)
        snap = obs.registry().snapshot()
        assert snap["counters"] == {} and snap["events"] == []


class TestPageTelemetry:
    def test_counters_match_iocost_exactly(self):
        from repro.index.pages import PageManager

        obs.enable()
        pages = PageManager(page_size=256)
        small = pages.allocate(100)
        large = pages.allocate(600)  # spans 3 pages
        pages.read(small)
        pages.read(large)
        pages.read_bytes(1000)
        reg = obs.registry()
        assert reg.counter("io.page_accesses").value == pages.cost.page_accesses
        assert reg.counter("io.bytes_read").value == pages.cost.bytes_read
        assert pages.cost.page_accesses == 1 + 3 + 4
        assert pages.cost.bytes_read == 100 + 600 + 1000


class TestExtractionTelemetry:
    def test_extraction_counters_and_span(self, enabled, lshape_grid):
        from repro.features.cover_sequence import extract_cover_sequence

        sequence = extract_cover_sequence(lshape_grid, 3)
        reg = obs.registry()
        assert reg.counter("extract.objects").value == 1
        assert reg.counter("extract.iterations").value >= len(sequence.covers)
        assert reg.histogram("extract.covers").count == 1
        assert reg.histogram("span.extract.seconds").count == 1
        # The pruned search bounds every x-pair and scans only survivors;
        # the counts are a function of the grid, so a rerun repeats them.
        names = (
            "extract.searches",
            "extract.searches_skipped",
            "extract.xpairs_bounded",
            "extract.xpairs_scanned",
        )
        first = {name: reg.counter(name).value for name in names}
        assert 0 < first["extract.xpairs_scanned"] <= first["extract.xpairs_bounded"]
        extract_cover_sequence(lshape_grid, 3)
        assert {name: reg.counter(name).value for name in names} == {
            name: 2 * value for name, value in first.items()
        }

    def test_cache_counters(self, tmp_path, lshape_grid):
        from repro.features.cache import FeatureCache
        from repro.features.vector_set_model import VectorSetModel

        obs.enable()
        cache = FeatureCache(root=tmp_path / "features")
        model = VectorSetModel(k=3)
        cache.get(lshape_grid, model)
        cache.put(lshape_grid, model, model.extract(lshape_grid))
        cache.get(lshape_grid, model)
        reg = obs.registry()
        assert reg.counter("cache.misses").value == 1
        assert reg.counter("cache.hits").value == 1


class TestOpticsTelemetry:
    def test_progress_and_row_cache_counters(self, enabled, rng):
        from repro.clustering.optics import distance_rows_from_matrix, optics

        points = rng.normal(size=(25, 3))
        matrix = np.linalg.norm(points[:, None] - points[None], axis=2)
        ordering = optics(len(points), distance_rows_from_matrix(matrix), min_pts=3)
        assert len(ordering) == 25
        assert obs.registry().counter("optics.processed").value == 25
        obs.close_sink()
        events = [json.loads(line) for line in enabled.read_text().splitlines()]
        progress = [e for e in events if e["event"] == "optics_progress"]
        assert progress and progress[-1]["processed"] == 25


class TestWorkerParity:
    def test_parallel_ingest_matches_serial_counters(self):
        """Satellite guarantee: ``--jobs 2`` reports the same counter
        totals as a serial run — batch counters are recorded once in the
        parent, per-object spans merge back from worker snapshots."""
        from repro.datasets.parts import make_part
        from repro.pipeline import Pipeline

        rng = np.random.default_rng(7)
        parts = [make_part(family, rng) for family in ("door", "bracket", "tire")]
        pipeline = Pipeline(resolution=10)

        def run(n_jobs):
            obs.registry().reset()
            obs.enable()
            pipeline.process_parts(parts, n_jobs=n_jobs)
            snap = obs.registry().snapshot(include_events=False)
            obs.registry().reset()
            obs.disable()
            return snap

        serial, parallel = run(None), run(2)
        assert serial["counters"] == parallel["counters"]
        assert serial["counters"]["ingest.objects_ok"] == 3
        # Per-object spans happened in workers but the histogram count
        # (one observation per object) merges back exactly.
        assert (
            serial["histograms"]["span.ingest.object.seconds"]["count"]
            == parallel["histograms"]["span.ingest.object.seconds"]["count"]
            == 3
        )

    def test_worker_spans_reach_parent_sink_exactly_once(self, enabled):
        """Forked workers inherit the sink object but must never write
        through its shared file descriptor: their span events buffer in
        the worker registry and re-dispatch in the parent — so the trace
        has exactly one start/end pair per object, no clobbered or
        duplicated lines."""
        from repro.datasets.parts import make_part
        from repro.pipeline import Pipeline

        rng = np.random.default_rng(11)
        parts = [make_part(family, rng) for family in ("door", "bracket", "tire")]
        Pipeline(resolution=10).process_parts(parts, n_jobs=2)
        obs.close_sink()
        check = validate_trace(enabled)
        assert check.ok, check.errors
        records = [json.loads(line) for line in enabled.read_text().splitlines()]
        starts = [
            r["name"] for r in records if r["event"] == "span_start"
        ]
        assert starts.count("ingest.object") == 3
        assert starts.count("ingest.process_parts") == 1

    def test_pool_map_skips_capture_when_disabled(self):
        from repro.parallel import pool_map

        assert obs.enabled() is False
        results = pool_map(_double, [1, 2, 3], 2)
        assert results == [2, 4, 6]
        assert obs.registry().snapshot()["counters"] == {}


class TestSinkModes:
    """Satellite fix: a second run sharing ``--trace FILE`` must not
    clobber the first run's records (the pre-PR-9 ``"w"`` open did)."""

    def test_append_mode_survives_two_runs(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.enable()
        for note in ("first", "second"):
            obs.configure_sink(trace)  # default mode: append
            obs.emit("run", note=note)
            obs.close_sink()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["note"] for r in records] == ["first", "second"]

    def test_truncate_mode_starts_over(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.enable()
        for note in ("first", "second"):
            obs.configure_sink(trace, mode="truncate")
            obs.emit("run", note=note)
            obs.close_sink()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["note"] for r in records] == ["second"]

    def test_rotate_mode_keeps_previous_file(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        obs.enable()
        for note in ("first", "second", "third"):
            obs.configure_sink(trace, mode="rotate")
            obs.emit("run", note=note)
            obs.close_sink()
        current = [json.loads(line) for line in trace.read_text().splitlines()]
        rotated = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl.1").read_text().splitlines()
        ]
        # Only one rotation generation is kept: .1 holds the previous
        # run, older runs are gone.
        assert [r["note"] for r in current] == ["third"]
        assert [r["note"] for r in rotated] == ["second"]

    def test_unknown_mode_rejected(self, tmp_path):
        from repro.obs.events import EventSink

        with pytest.raises(ValueError, match="sink mode"):
            EventSink(tmp_path / "trace.jsonl", mode="overwrite")


class TestSpawnParity:
    def test_spawn_workers_report_identical_telemetry(self, enabled):
        """Worker metric capture must not depend on fork inheritance:
        under the spawn start method the worker process starts with a
        pristine, *disabled* obs layer, and ``capture_deltas`` alone
        must produce the same counters/spans/events a serial run does."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.obs.tracectx import new_trace_id

        tasks = [1, 2, 3]

        def serial_run():
            obs.registry().reset()
            for task in tasks:
                _spawn_work(task)
            snap = obs.registry().snapshot(include_events=False)
            obs.registry().reset()
            return snap

        serial = serial_run()

        trace_id = new_trace_id()
        payloads = [
            (True, (trace_id, None), _spawn_work, task) for task in tasks
        ]
        from repro.parallel import _captured_task

        with ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            for result, snapshot in pool.map(_captured_task, payloads):
                assert snapshot is not None
                obs.merge_worker_snapshot(snapshot)
        spawned = obs.registry().snapshot(include_events=False)

        assert spawned["counters"] == serial["counters"]
        assert (
            spawned["histograms"]["span.spawn.work.seconds"]["count"]
            == serial["histograms"]["span.spawn.work.seconds"]["count"]
            == 3
        )
        # Worker events re-dispatched into the parent sink, each
        # stamped with the propagated trace id.
        obs.close_sink()
        records = [json.loads(line) for line in enabled.read_text().splitlines()]
        # (The serial baseline wrote untraced markers into the same
        # sink; the worker ones are exactly the traced ones.)
        markers = [
            r
            for r in records
            if r["event"] == "spawn_marker" and r.get("trace") == trace_id
        ]
        assert len(markers) == 3


class TestReportQuantiles:
    def test_histogram_lines_carry_tails_and_caveat(self):
        from repro.obs.report import render_report

        reg = MetricsRegistry(enabled=True)
        for value in range(100):
            reg.histogram("span.knn.seconds").observe(float(value) / 100)
        text = render_report(reg, [])
        assert "reservoir estimates" in text
        line = next(l for l in text.splitlines() if "span.knn.seconds" in l)
        assert "p95=" in line and "p99=" in line and "samples=" in line


def _double(x):
    return 2 * x


def _spawn_work(task):
    """Spawn-pool work unit (module-level so it pickles): one counter
    bump, one span, one event per task."""
    obs.counter("spawn.tasks").inc()
    with span("spawn.work", task=task):
        obs.emit("spawn_marker", task=task)
    return task

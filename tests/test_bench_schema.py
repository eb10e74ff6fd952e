"""The unified bench-output schema (:mod:`repro.bench.schema`)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCHEMA_ID,
    load_bench_files,
    render_report,
    validate_records,
    write_bench,
)
from repro.exceptions import ReproError

GOOD = [
    {
        "op": "index_knn",
        "backend": "xtree",
        "n": 1000,
        "pointer_seconds": 0.5,
        "batched_seconds": 0.1,
        "speedup": 5.0,
    },
    {"op": "approx_pareto_point", "budget": 40, "recall": 0.96, "reduction": 12.5},
    {"op": "sketch_params", "params": {"width": 512, "pool": "or"}},
]


class TestValidateRecords:
    def test_good_records_pass(self):
        assert validate_records(GOOD) == []

    def test_not_a_list(self):
        assert validate_records({"op": "x"})

    @pytest.mark.parametrize(
        "record,needle",
        [
            ({"backend": "xtree"}, "op"),
            ({"op": ""}, "op"),
            ({"op": 3}, "op"),
            ({"op": "x", "backend": 7}, "backend"),
            ({"op": "x", "n": -1}, "n"),
            ({"op": "x", "n": True}, "n"),
            ({"op": "x", "seconds": float("nan")}, "seconds"),
            ({"op": "x", "build_seconds": -0.1}, "build_seconds"),
            ({"op": "x", "speedup": 0.0}, "speedup"),
            ({"op": "x", "load_speedup": float("inf")}, "load_speedup"),
            ({"op": "x", "extra": [1, 2]}, "extra"),
            ({"op": "x", "params": {"bad": [1]}}, "params.bad"),
        ],
    )
    def test_violations_are_reported(self, record, needle):
        errors = validate_records([record])
        assert errors and any(needle in e for e in errors)

    def test_non_dict_record(self):
        assert validate_records(["not-a-record"])


class TestWriteBench:
    def test_writes_pinned_format(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        write_bench(path, GOOD, suite="kernels", seed=7, label="unit")
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_ID
        assert payload["suite"] == "kernels"
        assert payload["seed"] == 7
        assert payload["label"] == "unit"
        assert payload["records"] == GOOD

    def test_invalid_records_abort_before_writing(self, tmp_path):
        path = tmp_path / "BENCH_BAD.json"
        with pytest.raises(ReproError):
            write_bench(
                path, [{"op": "x", "seconds": -1.0}], suite="kernels"
            )
        assert not path.exists()


class TestLoadAndReport:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        write_bench(path, GOOD, suite="kernels", seed=7)
        [(got_path, meta, records)] = load_bench_files([path])
        assert got_path == path
        assert meta["suite"] == "kernels"
        assert records == GOOD

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "BENCH_BAD.json"
        path.write_text('"just a string"')
        with pytest.raises(ReproError):
            load_bench_files([path])
        path.write_text("{not json")
        with pytest.raises(ReproError):
            load_bench_files([path])
        path.write_text(json.dumps(GOOD))  # a bare record list, pre-schema
        with pytest.raises(ReproError):
            load_bench_files([path])

    def test_render_report_tabulates_everything(self, tmp_path):
        new = tmp_path / "BENCH_NEW.json"
        write_bench(new, GOOD, suite="kernels", seed=7)
        old = tmp_path / "BENCH_OLD.json"
        write_bench(old, [{"op": "old_op", "seconds": 1.25}], suite="kernels")
        text = render_report(load_bench_files([new, old]))
        assert "BENCH_NEW.json" in text and "BENCH_OLD.json" in text
        assert "index_knn" in text and "old_op" in text
        assert "5.00x" in text
        assert "recall=0.96" in text


class TestBenchReportCli:
    def test_report_command(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        path = tmp_path / "BENCH_X.json"
        write_bench(path, GOOD, suite="kernels", seed=7)
        assert main(["bench", "report", "--files", str(path)]) == 0
        assert "index_knn" in capsys.readouterr().out

    def test_report_no_files(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "report"]) == 2

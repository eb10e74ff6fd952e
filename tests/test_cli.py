"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.db import open_database
from repro.geometry.mesh import box_mesh, torus_mesh
from repro.io.stl import write_stl_binary


def stored_names(path) -> list[str]:
    """The ``name`` of every object of a database layout, ascending oid."""
    db = open_database(path)
    db.close()
    return [db.payload(oid)["name"] for oid in db.object_ids()]


def result_rows(out: str) -> list[list[str]]:
    """The ranked rows a ``query`` printed: rank, oid, name, family,
    distance."""
    return [
        line.split()
        for line in out.splitlines()
        if line.strip() and line.split()[0].isdigit()
    ]


@pytest.fixture(scope="module")
def car_db(tmp_path_factory):
    """A small ingested database reused across CLI tests."""
    path = tmp_path_factory.mktemp("clidb") / "car.npz"
    code = main(
        ["ingest", "--dataset", "aircraft", "--n", "40", "--out", str(path)]
    )
    assert code == 0
    return path


class TestIngest:
    def test_ingest_car_subset(self, tmp_path, capsys):
        out = tmp_path / "db.npz"
        code = main(["ingest", "--dataset", "aircraft", "--n", "15", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "ingested 15 objects" in capsys.readouterr().out

    def test_ingest_mesh_directory(self, tmp_path, capsys):
        mesh_dir = tmp_path / "meshes"
        mesh_dir.mkdir()
        for index in range(3):
            write_stl_binary(
                torus_mesh(major_radius=1.0 + 0.1 * index, minor_radius=0.3),
                mesh_dir / f"part{index}.stl",
            )
        out = tmp_path / "meshes.npz"
        code = main(["ingest", "--meshes", str(mesh_dir), "--out", str(out)])
        assert code == 0
        assert "ingested 3 objects" in capsys.readouterr().out

    def test_ingest_empty_mesh_dir_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["ingest", "--meshes", str(empty), "--out", str(tmp_path / "x.npz")])
        assert code == 2

    def test_ingest_parallel_matches_serial(self, tmp_path):
        serial_path = tmp_path / "serial.npz"
        parallel_path = tmp_path / "parallel.npz"
        args = ["ingest", "--dataset", "aircraft", "--n", "10"]
        assert main(args + ["--out", str(serial_path), "--no-cache"]) == 0
        assert main(args + ["--out", str(parallel_path), "--jobs", "2",
                            "--no-cache"]) == 0
        assert stored_names(serial_path) == stored_names(parallel_path)

    def test_ingest_cache_warm_second_pass(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        args = ["ingest", "--dataset", "aircraft", "--n", "8"]
        assert main(args + ["--out", str(tmp_path / "a.npz")]) == 0
        assert "misses" in capsys.readouterr().out
        # Second pass over identical grids must be (nearly) all hits.
        code = main(
            args + ["--out", str(tmp_path / "b.npz"), "--assert-cache-hits", "90"]
        )
        assert code == 0
        assert "100.0% hit rate" in capsys.readouterr().out

    def test_assert_cache_hits_fails_cold(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code = main(
            ["ingest", "--dataset", "aircraft", "--n", "6",
             "--out", str(tmp_path / "a.npz"), "--assert-cache-hits", "90"]
        )
        assert code == 1
        assert "below required" in capsys.readouterr().err


class TestQuery:
    def test_query_by_name(self, car_db, capsys):
        # Use whatever the first stored object is called.
        name = stored_names(car_db)[0]
        code = main(["query", str(car_db), "--name", name, "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert name in out
        assert "refined" in out

    def test_query_unknown_name_fails(self, car_db):
        assert main(["query", str(car_db), "--name", "warp-coil"]) == 2

    def test_query_by_mesh(self, car_db, tmp_path, capsys):
        mesh_path = tmp_path / "query.stl"
        write_stl_binary(torus_mesh(major_radius=1.0, minor_radius=0.3), mesh_path)
        code = main(["query", str(car_db), "--mesh", str(mesh_path), "-k", "2"])
        assert code == 0
        assert "distance" in capsys.readouterr().out


class TestClusterAndInfo:
    def test_cluster(self, car_db, capsys):
        code = main(["cluster", str(car_db), "--min-pts", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reachability" in out
        assert "cut at eps" in out

    def test_cluster_parallel_jobs(self, car_db, capsys):
        assert main(["cluster", str(car_db), "--min-pts", "3", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        code = main(["cluster", str(car_db), "--min-pts", "3", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cut at eps" in out
        assert out == serial

    def test_info(self, car_db, capsys):
        code = main(["info", str(car_db)])
        assert code == 0
        out = capsys.readouterr().out
        assert "objects:       40" in out
        assert "capacity:      7" in out
        assert "feature cache:" in out


class TestExperiment:
    def test_fig5(self, capsys):
        code = main(["experiment", "fig5"])
        assert code == 0
        assert "reachability" in capsys.readouterr().out


class TestObservability:
    def test_query_writes_metrics_and_trace(self, car_db, tmp_path, capsys):
        import json

        name = stored_names(car_db)[0]
        metrics = tmp_path / "q.json"
        trace = tmp_path / "q.jsonl"
        code = main(
            ["query", str(car_db), "--name", name, "-k", "3",
             "--metrics", str(metrics), "--trace", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        snapshot = json.loads(metrics.read_text())
        # The emitted telemetry agrees exactly with what the command
        # printed: one query, selectivity/refinements from QueryStats.
        assert snapshot["counters"]["query.count"] == 1
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        query_events = [e for e in events if e["event"] == "query"]
        assert len(query_events) == 1
        refined = query_events[0]["exact_computations"]
        assert f"refined {refined}/" in out
        assert snapshot["counters"]["query.exact_computations"] == refined
        assert any(e["event"] == "span_start" for e in events)

    def test_stats_validates_and_reports(self, car_db, tmp_path, capsys):
        name = stored_names(car_db)[0]
        metrics = tmp_path / "q.json"
        trace = tmp_path / "q.jsonl"
        assert main(
            ["query", str(car_db), "--name", name,
             "--metrics", str(metrics), "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        code = main(["stats", "--metrics", str(metrics), "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "query.count" in out
        assert "OK" in out

    def test_stats_json_merges_snapshots(self, tmp_path, capsys):
        import json

        for index in range(2):
            (tmp_path / f"m{index}.json").write_text(
                json.dumps({"counters": {"query.count": 3}})
            )
        code = main(
            ["stats", "--json",
             "--metrics", str(tmp_path / "m0.json"), str(tmp_path / "m1.json")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["query.count"] == 6

    def test_stats_fails_on_malformed_trace(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"event": "span_start", "id": "1-1", "name": "lost"}) + "\n"
        )
        code = main(["stats", "--trace", str(bad)])
        assert code == 1
        assert "never closed" in capsys.readouterr().out

    def test_stats_without_inputs_is_usage_error(self, capsys):
        assert main(["stats"]) == 2
        assert "nothing to report" in capsys.readouterr().err

    def test_parallel_ingest_metrics_match_serial(self, tmp_path):
        """Satellite guarantee at the CLI level: ``--jobs 2`` reports the
        same ingest counter totals as a serial run."""
        import json

        args = ["ingest", "--dataset", "aircraft", "--n", "8", "--no-cache"]
        serial_metrics = tmp_path / "serial.json"
        parallel_metrics = tmp_path / "parallel.json"
        assert main(args + ["--out", str(tmp_path / "s.npz"),
                            "--metrics", str(serial_metrics)]) == 0
        assert main(args + ["--out", str(tmp_path / "p.npz"), "--jobs", "2",
                            "--metrics", str(parallel_metrics)]) == 0
        serial = json.loads(serial_metrics.read_text())["counters"]
        parallel = json.loads(parallel_metrics.read_text())["counters"]
        ingest_keys = {k for k in serial if k.startswith(("ingest.", "extract."))}
        assert ingest_keys
        for key in sorted(ingest_keys):
            assert serial[key] == parallel[key], key

    def test_obs_state_reset_between_runs(self, car_db, tmp_path, capsys):
        """A --metrics run must not leak an enabled registry into the
        next plain invocation (embedded callers, test isolation)."""
        import json

        from repro import obs

        name = stored_names(car_db)[0]
        metrics = tmp_path / "first.json"
        assert main(["query", str(car_db), "--name", name,
                     "--metrics", str(metrics)]) == 0
        assert not obs.enabled()
        assert main(["query", str(car_db), "--name", name]) == 0
        # The second (plain) run recorded nothing anywhere.
        assert obs.registry().snapshot()["counters"] == {}
        assert json.loads(metrics.read_text())["counters"]["query.count"] == 1


def test_bench_is_not_a_command(capsys):
    # The one benchmark is benchmarks/e2e (BENCHMARK.json), not a CLI suite.
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_db_init_has_no_backend_option(tmp_path, capsys):
    # There is one index, so there is no backend to choose.
    with pytest.raises(SystemExit) as exc:
        main(["db", "init", str(tmp_path / "x"), "--backend", "xtree"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


class TestDbCommands:
    @pytest.fixture
    def mesh_dir(self, tmp_path):
        meshes = tmp_path / "meshes"
        meshes.mkdir()
        for index in range(3):
            write_stl_binary(
                torus_mesh(major_radius=1.0 + 0.2 * index, minor_radius=0.3),
                meshes / f"part{index}.stl",
            )
        return meshes

    def test_init_add_query_remove(self, tmp_path, mesh_dir, capsys):
        db_path = tmp_path / "sim.db"
        assert main(["db", "init", str(db_path), "--covers", "5",
                     "--resolution", "12"]) == 0
        meshes = sorted(str(p) for p in mesh_dir.glob("*.stl"))
        assert main(["db", "add", str(db_path)] + meshes) == 0
        out = capsys.readouterr().out
        assert "3 objects" in out

        # A mesh that is already stored must come back at distance zero,
        # under the name `db add` recorded.
        assert main(["query", str(db_path), "--mesh", meshes[1], "-k", "3"]) == 0
        top = result_rows(capsys.readouterr().out)[0]
        assert top[0] == "1" and top[2:4] == ["part1", "mesh"]
        assert float(top[-1]) == 0.0

        assert main(["db", "remove", str(db_path), "1"]) == 0
        assert main(["db", "remove", str(db_path), "1"]) == 2  # already gone
        capsys.readouterr()  # drop the remove chatter
        with pytest.raises(SystemExit) as exc:  # nothing is left to compact
            main(["db", "compact", str(db_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'compact'" in capsys.readouterr().err
        assert main(["query", str(db_path), "--mesh", meshes[0], "-k", "2"]) == 0
        returned_ids = [row[1] for row in result_rows(capsys.readouterr().out)]
        assert returned_ids == ["0", "2"]  # object 1 was removed

    def test_db_add_writes_metrics(self, tmp_path, mesh_dir):
        import json

        db_path = tmp_path / "sim.db"
        metrics = tmp_path / "m.json"
        assert main(["db", "init", str(db_path), "--resolution", "12"]) == 0
        mesh = str(next(iter(sorted(mesh_dir.glob("*.stl")))))
        assert main(["db", "add", str(db_path), mesh,
                     "--metrics", str(metrics)]) == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["db.mutations.add"] == 1
        assert snapshot["gauges"]["db.size"] == 1
        assert any(
            name.startswith("span.db.snapshot.save")
            for name in snapshot["histograms"]
        )

    @pytest.mark.parametrize("durable", [False, True])
    def test_sharded_init_persists_resolution(self, tmp_path, durable):
        from repro.cli import _open

        db_path = tmp_path / "parts.db"
        argv = ["db", "init", str(db_path), "--resolution", "9", "--shards", "2"]
        assert main(argv + (["--durable"] if durable else [])) == 0
        db = _open(db_path)
        try:
            assert db.n_shards == 2 and db.durable is durable
            assert db.pipeline.resolution == 9
        finally:
            db.close()

    def test_a_failed_snapshot_write_is_one_error_line(
        self, tmp_path, mesh_dir, monkeypatch, capsys
    ):
        """A full disk under `db init` / `db add` exits 1 with one line
        naming the file, never a traceback, and publishes nothing."""
        from repro.testing.faults import fail_once, savez_faults

        db_path = tmp_path / "sim.npz"
        with savez_faults(fail_once()):
            assert main(["db", "init", str(db_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write snapshot") and str(db_path) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not db_path.exists()

        assert main(["db", "init", str(db_path), "--resolution", "12"]) == 0
        before = db_path.read_bytes()
        mesh = str(next(iter(sorted(mesh_dir.glob("*.stl")))))
        capsys.readouterr()
        with savez_faults(fail_once()):
            assert main(["db", "add", str(db_path), mesh]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write snapshot") and err.count("\n") == 1
        assert db_path.read_bytes() == before

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        dense = tmp_path / "sim.dense"
        monkeypatch.setattr("repro.db.archive.os.replace", full_disk)
        assert main(["db", "init", str(dense), "--dense"]) == 1
        err = capsys.readouterr().err
        assert "No space left on device" in err and str(dense) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meshes", "sim.npz"]

    def test_a_relative_source_is_the_init_directory(
        self, tmp_path, mesh_dir, monkeypatch, capsys
    ):
        """`--source db.npz` names the file beside the caller, not one
        inside the durable directory: it is stored absolute, and the
        rung finds it after every snapshot is corrupted."""
        from repro.testing.faults import corrupt_bytes

        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        meshes = sorted(str(p) for p in mesh_dir.glob("*.stl"))
        settings = ["--covers", "5", "--resolution", "12"]
        assert main(["db", "init", "db.npz"] + settings) == 0
        assert main(["db", "add", "db.npz"] + meshes) == 0
        assert main(["db", "init", "d", "--durable", "--source", "db.npz"]
                    + settings) == 0
        config = json.loads((work / "d" / "durable.json").read_text())
        assert config["source"] == str(work / "db.npz")

        monkeypatch.chdir(tmp_path)
        for snapshot in (work / "d").glob("snapshot-*.npz"):
            corrupt_bytes(snapshot, 100, 64)
        (work / "d" / "wal-00000000.log").unlink()
        capsys.readouterr()
        assert main(["query", str(work / "d"), "--name", "part1", "-k", "3"]) == 0
        top = result_rows(capsys.readouterr().out)[0]
        assert top[2] == "part1" and float(top[-1]) == 0.0
        assert stored_names(work / "d") == ["part0", "part1", "part2"]


class TestOneDatabase:
    """`ingest` writes a SimilarityDatabase layout and every command opens
    any layout through open_database."""

    @pytest.fixture(scope="class")
    def meshes(self, tmp_path_factory):
        meshes = tmp_path_factory.mktemp("onedb") / "meshes"
        meshes.mkdir()
        for index in range(5):
            write_stl_binary(
                box_mesh(size=(1 + 0.1 * index, 1, 0.5)), meshes / f"g{index}.stl"
            )
        return meshes

    @pytest.fixture(scope="class")
    def ingested(self, meshes):
        path = meshes.parent / "ingested.npz"
        assert main(["ingest", "--meshes", str(meshes), "--out", str(path),
                     "--resolution", "10"]) == 0
        return path

    def test_ingest_and_query_normalise_alike(self, meshes, ingested, capsys):
        capsys.readouterr()
        assert main(["query", str(ingested), "--mesh", str(meshes / "g1.stl"),
                     "-k", "3"]) == 0
        top = result_rows(capsys.readouterr().out)[0]
        assert top == ["1", "1", "g1", "mesh", "0.0000"]

    def test_query_by_name_on_ingest_and_db_add_output(
        self, meshes, ingested, tmp_path, capsys
    ):
        added = tmp_path / "added.db"
        assert main(["db", "init", str(added), "--resolution", "10"]) == 0
        assert main(["db", "add", str(added)]
                    + [str(meshes / f"g{i}.stl") for i in range(5)]) == 0
        for path in (ingested, added):
            capsys.readouterr()
            assert main(["query", str(path), "--name", "g3", "-k", "2"]) == 0
            top = result_rows(capsys.readouterr().out)[0]
            assert top[2:] == ["g3", "mesh", "0.0000"]
        assert stored_names(added) == [f"g{i}" for i in range(5)]

    def test_approx_with_a_full_shortlist_equals_exact(self, ingested, capsys):
        capsys.readouterr()
        assert main(["query", str(ingested), "--name", "g2", "-k", "4"]) == 0
        exact = result_rows(capsys.readouterr().out)
        assert main(["query", str(ingested), "--name", "g2", "-k", "4",
                     "--mode", "approx", "--shortlist", "5"]) == 0
        assert result_rows(capsys.readouterr().out) == exact
        assert len(exact) == 4

    def test_verify_passes_on_ingest_output(self, ingested, capsys):
        assert main(["db", "verify", str(ingested)]) == 0
        assert "verify: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("layout", ["plain", "durable", "sharded", "empty"])
    def test_info_on_every_layout(self, layout, meshes, tmp_path, capsys):
        path = tmp_path / "db"
        init = {"plain": [], "durable": ["--durable"], "sharded": ["--shards", "2"],
                "empty": []}[layout]
        assert main(["db", "init", str(path), "--resolution", "9"] + init) == 0
        if layout != "empty":
            assert main(["db", "add", str(path), str(meshes / "g0.stl"),
                         str(meshes / "g4.stl")]) == 0
        capsys.readouterr()
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        objects = 0 if layout == "empty" else 2
        assert f"objects:       {objects}" in out
        assert "backend:" not in out
        assert "capacity:      7" in out
        assert "resolution:    9" in out
        assert f"shards:        {2 if layout == 'sharded' else 1}" in out
        assert ("families:      {}" if layout == "empty" else "{'mesh': 2}") in out

    def test_an_object_store_archive_is_not_a_database(self, tmp_path, capsys):
        """A foreign ``.npz`` (plain ``np.savez``): without a meta block,
        and with one of another format (the object-store archive the
        recovery ladder read before the snapshot became the one store)."""
        path = tmp_path / "objects.npz"
        old_meta = json.dumps({"format_version": 2, "records": []}).encode()
        for meta, message in (
            ({}, "not a snapshot archive"),
            ({"meta": np.frombuffer(old_meta, dtype=np.uint8)}, "repro-similarity-db"),
        ):
            np.savez(path, grid_0=np.zeros(8, dtype=np.uint8), **meta)
            assert main(["query", str(path), "--name", "g1"]) == 1
            err = capsys.readouterr().err
            assert "error: " in err and message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "extra", [["--shards", "2", "--durable"], ["--shards", "2"], []],
        ids=["sharded-durable", "sharded", "not-durable"],
    )
    def test_db_init_refuses_a_source_it_cannot_use(self, extra, tmp_path, capsys):
        """The source used to be dropped (not durable) or forwarded to
        every shard, whose rebuild would then add the whole archive."""
        path = tmp_path / "db"
        code = main(["db", "init", str(path), "--source", str(tmp_path / "o.npz")]
                    + extra)
        assert code == 1
        assert "source" in capsys.readouterr().err
        assert not path.exists()

    def test_removed_options_are_gone(self, ingested, capsys):
        for argv in (
            ["query", str(ingested), "--name", "g1", "--snapshot"],
            ["query", str(ingested), "--name", "g1", "--covers", "7"],
            ["query", str(ingested), "--name", "g1", "--resolution", "10"],
            ["cluster", str(ingested), "--covers", "7"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``ingest``      build a similarity database from a synthetic dataset or a
                directory of STL/OFF meshes
``query``       k-nn search against a database (by stored name or mesh file)
``db``          create, mutate and verify a database in place
``cluster``     OPTICS-cluster a database and render the reachability plot
``experiment``  run one of the paper's experiments (table1, table2, figures)
``info``        show database statistics
``stats``       merge metrics snapshots and validate trace files
``obs``         export a trace as Chrome trace-event JSON (``obs export``)
                or render metrics in OpenMetrics text (``obs expose``)

There is one database: ``ingest`` and ``db init`` write a
:class:`~repro.db.SimilarityDatabase` layout, ``query``, ``cluster``,
``info`` and ``db`` open any layout with :func:`~repro.db.open_database`,
and each object carries its ``name`` and ``family`` as its payload.

Observability: ``ingest``, ``query``, ``cluster``, ``experiment`` and
``db`` accept ``--trace FILE`` (JSON-lines span/event trace) and
``--metrics FILE`` (counters/gauges/histograms snapshot); either flag
enables the :mod:`repro.obs` layer for the run.  ``repro stats`` merges
any number of such files into one report and exits non-zero when a
trace is malformed (unclosed span) or a counter is negative.

Examples
--------
::

    python -m repro ingest --dataset car --out car.npz
    python -m repro ingest --meshes parts/ --on-error retry --out parts.npz
    python -m repro info car.npz
    python -m repro query car.npz --name tire-003 -k 5
    python -m repro query car.npz --name tire-003 --trace q.jsonl --metrics q.json
    python -m repro stats --metrics q.json --trace q.jsonl
    python -m repro cluster car.npz
    python -m repro experiment table1

Exit codes
----------
``0``  success; ``1``  a :class:`~repro.exceptions.ReproError` aborted the
command; ``2``  bad invocation (unknown name, empty mesh directory,
nothing ingested); ``3``  partial success — ``ingest`` wrote a database
but some inputs failed (details on stderr).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.exceptions import ReproError


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    """The observability flags shared by every long-running command."""
    sub.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a JSON-lines trace of spans and telemetry events",
    )
    sub.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a JSON metrics snapshot (counters/gauges/histograms)",
    )
    sub.add_argument(
        "--trace-mode",
        choices=["append", "truncate", "rotate"],
        default="append",
        help="existing --trace file: 'append' (default) continues it, "
        "'truncate' starts over, 'rotate' moves it to FILE.1 first",
    )
    sub.add_argument(
        "--sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of queries logged as wide 'query' events "
        "(deterministic sampling; default 1.0 = every query)",
    )
    sub.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="always capture queries at least this slow (with a full "
        "explain payload), regardless of --sample",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Similarity search on voxelized CAD objects (SIGMOD 2003 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="build a similarity database")
    source = ingest.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=["car", "aircraft"])
    source.add_argument("--meshes", type=Path, help="directory of .stl/.off files")
    ingest.add_argument("--out", type=Path, required=True)
    ingest.add_argument("--resolution", type=int, default=15)
    ingest.add_argument("--covers", type=int, default=7)
    ingest.add_argument("--n", type=int, help="aircraft dataset size")
    ingest.add_argument("--seed", type=int, default=None)
    ingest.add_argument(
        "--on-error",
        choices=["raise", "skip", "retry"],
        default=None,
        help="failure policy for bad inputs "
        "(default: skip for --meshes, raise for --dataset)",
    )
    ingest.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first bad input (shorthand for --on-error raise)",
    )
    ingest.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for voxelization and feature extraction "
        "(default: serial; -1 for all cores)",
    )
    ingest.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed feature cache under REPRO_CACHE_DIR",
    )
    ingest.add_argument(
        "--assert-cache-hits",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) unless at least PCT%% of feature lookups hit "
        "the cache (CI guard for warm-cache re-ingests)",
    )
    _add_obs_args(ingest)

    query = commands.add_parser("query", help="k-nn search against a database")
    query.add_argument("database", type=Path)
    target = query.add_mutually_exclusive_group(required=True)
    target.add_argument("--name", help="query by a stored object's name")
    target.add_argument("--mesh", type=Path, help="query with an external mesh file")
    query.add_argument("-k", type=int, default=10)
    query.add_argument(
        "--mode",
        choices=["exact", "approx"],
        default="exact",
        help="'exact' (default): the paper's filter-refine pipeline; "
        "'approx': Hamming-rank the binary sketch tier and run the exact "
        "refine on the --shortlist best candidates only",
    )
    query.add_argument(
        "--shortlist",
        type=int,
        default=None,
        metavar="M",
        help="candidate budget for --mode approx (default: max(8k, 64))",
    )
    _add_obs_args(query)

    db = commands.add_parser(
        "db", help="mutable similarity database (add, remove, verify)"
    )
    db_commands = db.add_subparsers(dest="db_command", required=True)

    db_init = db_commands.add_parser(
        "init", help="create an empty database snapshot"
    )
    db_init.add_argument("database", type=Path)
    db_init.add_argument("--covers", type=int, default=7)
    db_init.add_argument("--resolution", type=int, default=15)
    db_init.add_argument(
        "--dense",
        action="store_true",
        help="write the flat mmap-able snapshot container instead of .npz: "
        "`load` maps its arrays instead of inflating them (not with --durable)",
    )
    db_init.add_argument(
        "--durable",
        action="store_true",
        help="create a write-ahead-logged database directory instead of "
        "a snapshot file: mutations survive crashes and `load` runs the "
        "recovery ladder",
    )
    db_init.add_argument(
        "--fsync",
        default="always",
        metavar="POLICY",
        help="WAL flush policy for --durable: 'always' (default, zero "
        "acknowledged loss), 'none', or 'every-N'",
    )
    db_init.add_argument(
        "--keep-generations",
        type=int,
        default=2,
        metavar="N",
        help="snapshot generations retained for recovery fallback "
        "(default: 2)",
    )
    db_init.add_argument(
        "--source",
        type=Path,
        default=None,
        metavar="SNAPSHOT",
        help="snapshot file (.npz or dense) whose objects the recovery "
        "ladder's last rung re-adds when nothing else recovers (needs "
        "--durable, not with --shards); a relative path is taken from "
        "the current directory and stored absolute (the Python API's "
        "source= is relative to the durable directory)",
    )
    db_init.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="create a sharded database: K independent shards behind "
        "one scatter-gather API (a directory layout; with --durable "
        "each shard gets its own WAL)",
    )
    _add_obs_args(db_init)

    db_add = db_commands.add_parser(
        "add", help="insert mesh files"
    )
    db_add.add_argument("database", type=Path)
    db_add.add_argument("meshes", type=Path, nargs="+")
    db_add.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed feature cache",
    )
    _add_obs_args(db_add)

    db_remove = db_commands.add_parser(
        "remove", help="delete objects by id"
    )
    db_remove.add_argument("database", type=Path)
    db_remove.add_argument("ids", type=int, nargs="+")
    _add_obs_args(db_remove)

    db_verify = db_commands.add_parser(
        "verify",
        help="integrity-check a database: index invariants, snapshot "
        "CRCs, WAL segment CRCs (exit 0 ok / 1 corrupt / 3 recovered "
        "with degradation)",
    )
    db_verify.add_argument("database", type=Path)
    _add_obs_args(db_verify)

    cluster = commands.add_parser("cluster", help="OPTICS reachability plot")
    cluster.add_argument("database", type=Path)
    cluster.add_argument("--min-pts", type=int, default=5)
    cluster.add_argument("--eps", type=float, help="cut level (default: auto)")
    cluster.add_argument("--height", type=int, default=10)
    cluster.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the pairwise distance matrix "
        "(default: serial; -1 for all cores)",
    )
    _add_obs_args(cluster)

    experiment = commands.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument(
        "name",
        choices=["table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"],
    )
    experiment.add_argument("--queries", type=int, default=10)
    experiment.add_argument("--n", type=int, help="aircraft dataset size")
    _add_obs_args(experiment)

    info = commands.add_parser("info", help="database statistics")
    info.add_argument("database", type=Path)

    obs = commands.add_parser(
        "obs", help="trace export and metrics exposition"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_export = obs_commands.add_parser(
        "export",
        help="render a --trace file as Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    obs_export.add_argument("trace", type=Path, help="JSON-lines trace file")
    obs_export.add_argument(
        "--format",
        choices=["chrome-trace"],
        default="chrome-trace",
        help="output format (only chrome-trace today)",
    )
    obs_export.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="output file (default: <trace>.chrome.json)",
    )
    obs_expose = obs_commands.add_parser(
        "expose",
        help="merge metrics snapshots and render them in OpenMetrics "
        "(Prometheus) text format",
    )
    obs_expose.add_argument(
        "--metrics",
        type=Path,
        nargs="+",
        required=True,
        metavar="FILE",
        help="metrics snapshot files to merge",
    )
    obs_expose.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="textfile-collector output (default: stdout)",
    )
    obs_expose.add_argument(
        "--prefix", default="repro_", help="metric name prefix (default: repro_)"
    )

    stats = commands.add_parser(
        "stats", help="merge metrics snapshots and validate trace files"
    )
    stats.add_argument(
        "--metrics",
        type=Path,
        nargs="+",
        default=[],
        metavar="FILE",
        help="metrics snapshot files to merge (counters sum exactly)",
    )
    stats.add_argument(
        "--trace",
        type=Path,
        nargs="+",
        default=[],
        metavar="FILE",
        help="JSON-lines trace files to validate (every span must close)",
    )
    stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    return parser


def cmd_ingest(args) -> int:
    from repro.db import SimilarityDatabase
    from repro.features.cache import FeatureCache
    from repro.features.vector_set_model import VectorSetModel
    from repro.pipeline import Pipeline

    pipeline = Pipeline(resolution=args.resolution)
    model = VectorSetModel(k=args.covers)
    database = SimilarityDatabase(args.covers, pipeline=pipeline)

    policy = "raise" if args.strict else args.on_error
    if policy is None:
        # Mesh collections routinely contain a few broken exports:
        # continue past them by default.  Synthetic datasets are ours,
        # so a failure there is a bug worth surfacing immediately.
        policy = "skip" if args.meshes else "raise"

    if args.dataset:
        from repro.datasets.aircraft import make_aircraft_dataset
        from repro.datasets.car import make_car_dataset

        from repro.seeding import resolve_seed

        if args.dataset == "car":
            parts, _ = make_car_dataset(seed=resolve_seed(args.seed, default=2003))
        else:
            parts, _ = make_aircraft_dataset(
                n=args.n, seed=resolve_seed(args.seed, default=1903)
            )
        report = pipeline.process_parts(parts, on_error=policy, n_jobs=args.jobs)
    else:
        report = pipeline.process_mesh_directory(
            args.meshes, on_error=policy, n_jobs=args.jobs
        )
        if not report.records:
            print(f"no .stl/.off files in {args.meshes}", file=sys.stderr)
            return 2

    # Feature extraction runs under the same isolation policy: a grid
    # the model rejects must not abort the rest of the batch.  Cache
    # hits (content-addressed on occupancy bits + model parameters)
    # skip extraction entirely.
    cache = FeatureCache(enabled=not args.no_cache)
    survivors = list(report.objects)
    outcomes = model.extract_many_outcomes(
        [obj.grid for obj in survivors], n_jobs=args.jobs, cache=cache
    )
    for processed, (ok, value) in zip(survivors, outcomes):
        if not ok:
            if policy == "raise":
                raise value
            report.demote(processed, value)
            continue
        database.add(
            len(database),
            value,
            payload={"name": processed.name, "family": processed.family},
        )

    lookups = cache.hits + cache.misses
    hit_pct = 100.0 * cache.hits / lookups if lookups else 0.0
    if cache.enabled:
        print(
            f"feature cache: {cache.hits} hits / {cache.misses} misses "
            f"({hit_pct:.1f}% hit rate)"
        )
        cache.flush_stats()

    if not report.all_ok():
        print(report.summary(), file=sys.stderr)
    if len(database) == 0:
        print("nothing ingested; database not written", file=sys.stderr)
        return 2
    database.save(args.out)
    print(f"ingested {len(database)} objects -> {args.out}")
    if args.assert_cache_hits is not None and hit_pct < args.assert_cache_hits:
        print(
            f"error: cache hit rate {hit_pct:.1f}% below required "
            f"{args.assert_cache_hits:.1f}%",
            file=sys.stderr,
        )
        return 1
    return 0 if report.all_ok() else 3


def _open(path: Path):
    """Open any database layout ready for queries and mutations.

    :func:`~repro.db.open_database` dispatches on what is on disk — a
    directory with a ``sharded.json`` manifest opens as a
    :class:`~repro.db.ShardedSimilarityDatabase`, anything else as a
    :class:`~repro.db.SimilarityDatabase` — so callers use the common
    query / mutation surface and never care which they got.  The feature
    model is the vector set model of the stored capacity.
    """
    from repro.db import open_database
    from repro.features.vector_set_model import VectorSetModel

    db = open_database(path)
    db.model = VectorSetModel(k=db.capacity)
    return db


def _field(db, oid: int, key: str) -> str:
    """One identity field of a stored object, ``-`` when it has none."""
    return (db.payload(oid) or {}).get(key, "-")


def _voxelize_for(db, path: Path):
    """Raw-voxelize a mesh with the database's pipeline settings (the
    grid is normalized later, inside ``add_grid``/``features_for_grid``)."""
    from repro.io import read_mesh
    from repro.pipeline import Pipeline
    from repro.voxel.voxelize import voxelize_mesh

    pipeline = db.pipeline or Pipeline()
    if db.pipeline is None:
        db.pipeline = pipeline
    return voxelize_mesh(
        read_mesh(path),
        pipeline.resolution,
        margin=pipeline.margin,
        keep_aspect=pipeline.keep_aspect,
    )


def cmd_db(args) -> int:
    if args.db_command == "init":
        from repro.db import SimilarityDatabase
        from repro.features.vector_set_model import VectorSetModel
        from repro.pipeline import Pipeline

        # The rung resolves a relative source against the durable
        # directory; on the command line it means the current one.
        source = None if args.source is None else args.source.absolute()
        if args.shards is not None:
            from repro.db import ShardedSimilarityDatabase

            if args.dense:
                raise ReproError("--dense is not supported with --shards")
            db = ShardedSimilarityDatabase(
                args.covers,
                shards=args.shards,
                pipeline=Pipeline(resolution=args.resolution),
                model=VectorSetModel(k=args.covers),
                durable=args.durable,
                path=args.database if args.durable else None,
                fsync=args.fsync,
                keep_generations=args.keep_generations,
                source=source,
            )
            if args.durable:
                db.checkpoint()
            else:
                db.save(args.database)
            db.close()
            print(
                f"created {'durable ' if args.durable else ''}sharded "
                f"database ({args.shards} shards) -> {args.database}/"
            )
            return 0
        db = SimilarityDatabase(
            args.covers,
            pipeline=Pipeline(resolution=args.resolution),
            model=VectorSetModel(k=args.covers),
            durable=args.durable,
            path=args.database if args.durable else None,
            fsync=args.fsync,
            keep_generations=args.keep_generations,
            source=source,
        )
        if args.durable:
            if args.dense:
                raise ReproError("--dense applies to snapshot files, not --durable")
            db.checkpoint()
            db.close()
            print(
                f"created durable database (fsync={args.fsync}) -> {args.database}/"
            )
        else:
            db.save(args.database, dense=args.dense)
            kind = "dense " if args.dense else ""
            print(f"created empty {kind}database -> {args.database}")
        return 0
    if args.db_command == "verify":
        from repro.db.storage import verify

        code, lines = verify(args.database)
        for stream, line in lines:
            print(line, file=sys.stderr if stream == "err" else sys.stdout)
        return code

    db = _open(args.database)
    if args.db_command == "add":
        from repro.features.cache import FeatureCache

        db.cache = FeatureCache(enabled=not args.no_cache)
        next_oid = max(db.object_ids(), default=-1) + 1
        for path in args.meshes:
            db.add_grid(
                next_oid,
                _voxelize_for(db, path),
                payload={"name": path.stem, "family": "mesh"},
            )
            print(f"added {path.name} as object {next_oid}")
            next_oid += 1
        db.save(args.database)
        db.close()
        db.cache.flush_stats()
        print(f"{len(db)} objects -> {args.database}")
        return 0
    # remove
    missing = [oid for oid in args.ids if not db.remove(oid)]
    for oid in missing:
        print(f"no object with id {oid}", file=sys.stderr)
    db.save(args.database)
    db.close()
    print(f"{len(db)} objects -> {args.database}")
    return 2 if missing else 0


def cmd_query(args) -> int:
    db = _open(args.database)
    db.close()  # a query only reads, and a closed database still answers
    if args.name:
        named = [oid for oid in db.object_ids() if _field(db, oid, "name") == args.name]
        if not named:
            print(f"no object named {args.name!r} in the database", file=sys.stderr)
            return 2
        query_set = db.get(named[0])
    else:
        grid = _voxelize_for(db, args.mesh)
        query_set = db.pipeline.features_for_grid(grid, db.model, cache=db.cache)
    results, stats = db.knn_query(
        query_set, args.k, mode=args.mode, shortlist=args.shortlist
    )
    print(f"{'rank':>4}  {'object':>8} {'name':24} {'family':14} distance")
    for rank, match in enumerate(results, 1):
        oid = match.object_id
        print(
            f"{rank:>4}  {oid:>8} {_field(db, oid, 'name'):24} "
            f"{_field(db, oid, 'family'):14} {match.distance:.4f}"
        )
    print(f"\n{stats}")
    return 0


def cmd_cluster(args) -> int:
    from repro.clustering.optics import distance_rows_from_sets, optics
    from repro.clustering.reachability import (
        auto_cut_level,
        extract_clusters,
        render_reachability_plot,
    )

    db = _open(args.database)
    db.close()  # clustering only reads
    oids = db.object_ids()
    if not oids:
        print(f"{args.database}: empty database, nothing to cluster", file=sys.stderr)
        return 2
    sets = [db.get(oid) for oid in oids]
    rows = distance_rows_from_sets(sets, capacity=db.capacity, n_jobs=args.jobs)
    ordering = optics(len(sets), rows, min_pts=args.min_pts)
    print(render_reachability_plot(
        ordering, height=args.height, max_width=110,
        title=f"{args.database.name} — vector set model (k={db.capacity})",
    ))

    eps = args.eps if args.eps is not None else auto_cut_level(ordering)
    clusters, noise = extract_clusters(ordering, eps)
    print(f"\ncut at eps={eps:.4f}: {len(clusters)} clusters, {len(noise)} noise")
    for index, members in enumerate(clusters):
        composition = Counter(_field(db, oids[m], "family") for m in members)
        print(f"  cluster {index}: {dict(composition)}")
    return 0


def cmd_experiment(args) -> int:
    from repro.evaluation.report import format_table

    if args.name == "table1":
        from repro.evaluation.table1 import run_table1

        rows = run_table1()
        print(format_table(
            ["covers", "permutation rate"],
            [[r.covers, f"{100 * r.permutation_rate:.1f}%"] for r in rows],
            title="Table 1 — proper permutations (Car dataset)",
        ))
    elif args.name == "table2":
        from repro.evaluation.table2 import run_table2

        rows, consistent = run_table2(n_queries=args.queries, n=args.n)
        print(format_table(
            ["method", "CPU s", "I/O s", "total s"],
            [[r.method, r.cpu_seconds, r.io_seconds, r.total_seconds] for r in rows],
            title="Table 2 — 10-nn query runtimes (Aircraft dataset)",
        ))
        print(f"filter/scan results consistent: {consistent}")
    elif args.name == "fig5":
        from repro.evaluation.figures import figure5_demo

        print(figure5_demo().render())
    elif args.name == "fig10":
        from repro.evaluation.figures import figure10_class_evaluation

        for evaluation in figure10_class_evaluation():
            print(f"\n{evaluation.model} (eps={evaluation.eps:.3f}, ARI={evaluation.ari:.3f}):")
            for index, composition in enumerate(evaluation.clusters):
                if sum(composition.values()) >= 3:
                    print(f"  cluster {index}: {composition}")
    else:
        from repro.evaluation.figures import run_figure

        for panel in run_figure(args.name, n=args.n):
            print()
            print(panel.render())
    return 0


def cmd_obs(args) -> int:
    """``repro obs export|expose``: trace export and metrics exposition."""
    import json

    if args.obs_command == "export":
        from repro.obs.export import assemble_tree, chrome_trace, load_trace

        records = load_trace(args.trace)
        if not records:
            print(f"{args.trace}: empty trace", file=sys.stderr)
            return 2
        document = chrome_trace(records)
        out = args.out or args.trace.with_suffix(args.trace.suffix + ".chrome.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document) + "\n")
        tree = assemble_tree(records)
        print(
            f"{len(document['traceEvents'])} trace events "
            f"({len(tree['nodes'])} spans, {len(tree['roots'])} root(s), "
            f"{len(tree['trace_ids'])} trace id(s)) -> {out}"
        )
        return 0

    # expose: merge snapshots, render OpenMetrics text.
    from repro.obs.report import load_metrics

    merged = load_metrics(args.metrics)
    text = merged.expose_prometheus(prefix=args.prefix)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    """Merge metrics snapshots, validate traces, render one report.

    Exit code 1 when any trace is structurally broken (unparseable
    line, span never closed, negative span duration) or any merged
    counter is negative — the CI bench-smoke job relies on this.
    """
    import json

    from repro.obs.report import (
        load_metrics,
        render_report,
        validate_counters,
        validate_trace,
    )

    if not args.metrics and not args.trace:
        print("nothing to report: pass --metrics and/or --trace files", file=sys.stderr)
        return 2
    merged = load_metrics(args.metrics)
    checks = [validate_trace(path) for path in args.trace]
    counter_errors = validate_counters(merged)
    if args.json:
        payload = merged.snapshot(include_events=False)
        payload["traces"] = [
            {
                "path": check.path,
                "events": check.events,
                "spans": check.spans,
                "by_event": check.by_event,
                "errors": check.errors,
            }
            for check in checks
        ]
        payload["errors"] = counter_errors
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(merged, checks))
        for message in counter_errors:
            print(f"ERROR {message}", file=sys.stderr)
    return 1 if counter_errors or any(not check.ok for check in checks) else 0


def cmd_info(args) -> int:
    from repro.features.cache import cache_info

    db = _open(args.database)
    db.close()  # info only reads
    families = Counter(_field(db, oid, "family") for oid in db.object_ids())
    resolution = db.pipeline.resolution if db.pipeline is not None else "-"
    print(f"objects:       {len(db)}")
    print(f"capacity:      {db.capacity}")
    print(f"dimension:     {db.dimension if db.dimension is not None else '-'}")
    print(f"resolution:    {resolution}")
    print(f"shards:        {getattr(db, 'n_shards', 1)}")
    print(f"families:      {dict(families)}")
    info = cache_info()
    print(
        f"feature cache: {info['entries']} entries ({info['bytes']} bytes) "
        f"at {info['root']}; lifetime {info['hits']} hits / "
        f"{info['misses']} misses"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "ingest": cmd_ingest,
        "query": cmd_query,
        "cluster": cmd_cluster,
        "experiment": cmd_experiment,
        "info": cmd_info,
        "stats": cmd_stats,
        "obs": cmd_obs,
        "db": cmd_db,
    }
    # `stats` and `obs` consume metrics/trace files; every other command
    # may produce them.  Either output flag switches the obs layer on
    # for exactly this invocation (reset afterwards so embedded callers
    # and tests never leak state between runs).
    consumer = args.command in ("stats", "obs")
    trace_out = getattr(args, "trace", None) if not consumer else None
    metrics_out = getattr(args, "metrics", None) if not consumer else None
    observing = trace_out is not None or metrics_out is not None
    root_span = None
    if observing:
        from repro import obs
        from repro.obs import querylog, tracectx

        obs.registry().reset()
        obs.enable()
        querylog.configure(
            sample_rate=getattr(args, "sample", 1.0),
            slow_ms=getattr(args, "slow_ms", None),
        )
        if trace_out is not None:
            obs.configure_sink(trace_out, mode=getattr(args, "trace_mode", "append"))
        # One trace id and one root span per CLI command: every span
        # and event of the run (pool workers included) carries the same
        # trace id and descends from this root, so `repro obs export`
        # reassembles the whole command into a single tree.
        tracectx.set_trace_context(tracectx.new_trace_id())
        root_span = obs.span(f"cli.{args.command}")
        root_span.__enter__()
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if observing:
            import json

            from repro import obs
            from repro.obs import querylog, tracectx

            if root_span is not None:
                root_span.__exit__(None, None, None)
            tracectx.clear_trace_context()
            querylog.reset()
            if metrics_out is not None:
                snapshot = obs.registry().snapshot(include_events=False)
                Path(metrics_out).parent.mkdir(parents=True, exist_ok=True)
                Path(metrics_out).write_text(json.dumps(snapshot, indent=2) + "\n")
            obs.close_sink()
            obs.registry().reset()
            obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

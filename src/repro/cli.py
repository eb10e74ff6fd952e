"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``ingest``      build an object database from a synthetic dataset or a
                directory of STL/OFF meshes
``query``       k-nn search against a database (by stored name or mesh file)
``cluster``     OPTICS-cluster a database and render the reachability plot
``experiment``  run one of the paper's experiments (table1, table2, figures)
``info``        show database statistics
``bench``       time the batched minimal-matching kernels against the
                per-pair baseline on a seeded synthetic workload, or
                ``bench compare BASE.json HEAD.json`` as a regression gate
``stats``       merge metrics snapshots and validate trace files
``obs``         export a trace as Chrome trace-event JSON (``obs export``)
                or render metrics in OpenMetrics text (``obs expose``)

Observability: ``ingest``, ``query``, ``cluster``, ``experiment`` and
``bench`` accept ``--trace FILE`` (JSON-lines span/event trace) and
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

import numpy as np

from repro.core.queries import FilterRefineEngine
from repro.exceptions import ReproError

MODEL_KEY = "vector-set(k={k})"


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

    ingest = commands.add_parser("ingest", help="build an object database")
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
    query.add_argument("--covers", type=int, default=7)
    query.add_argument("--resolution", type=int, default=15)
    query.add_argument(
        "--snapshot",
        action="store_true",
        help="treat DATABASE as a `repro db` snapshot: the saved index "
        "structure is reloaded as-is and answers the query without any "
        "rebuild work",
    )
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
        "db", help="mutable similarity database (incremental index maintenance)"
    )
    db_commands = db.add_subparsers(dest="db_command", required=True)

    db_init = db_commands.add_parser(
        "init", help="create an empty database snapshot"
    )
    db_init.add_argument("database", type=Path)
    db_init.add_argument("--covers", type=int, default=7)
    db_init.add_argument("--resolution", type=int, default=15)
    db_init.add_argument(
        "--backend",
        choices=["xtree", "rstar", "scan", "mtree"],
        default="xtree",
        help="access method maintained incrementally (default: xtree)",
    )
    db_init.add_argument(
        "--dense",
        action="store_true",
        help="write the flat mmap-able snapshot container instead of .npz: "
        "`load` maps node tables and features zero-copy (not with --durable)",
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
        metavar="OBJECTDB",
        help="ObjectDatabase archive used as the recovery ladder's "
        "last-resort rebuild input",
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
        "add", help="insert mesh files without rebuilding the index"
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
        "remove", help="delete objects by id (incremental index delete)"
    )
    db_remove.add_argument("database", type=Path)
    db_remove.add_argument("ids", type=int, nargs="+")
    _add_obs_args(db_remove)

    db_compact = db_commands.add_parser(
        "compact", help="rebuild the index in place (re-pack after churn)"
    )
    db_compact.add_argument("database", type=Path)
    _add_obs_args(db_compact)

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
    cluster.add_argument("--covers", type=int, default=7)
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

    bench = commands.add_parser(
        "bench", help="optimized vs baseline benchmarks (writes JSON)"
    )
    bench.add_argument(
        "suite",
        nargs="?",
        choices=[
            "kernels",
            "index_scale",
            "approx_pareto",
            "shard_scale",
            "report",
            "compare",
        ],
        default="kernels",
        help="'kernels' (default): batched matching kernels vs per-pair "
        "baselines; 'index_scale': array-native index cores vs pointer "
        "trees across database sizes, plus cold zero-copy snapshot loads; "
        "'approx_pareto': sketch-shortlisted approximate k-nn vs the "
        "exact oracle (recall/speedup Pareto curve); 'shard_scale': "
        "scatter-gather query/ingest critical path across shard counts, "
        "oracle-checked byte-identical; 'report': tabulate "
        "existing BENCH_*.json files; 'compare': regression sentinel — "
        "BASE.json HEAD.json per-op deltas, exit 1 on regression",
    )
    bench.add_argument(
        "paths",
        type=Path,
        nargs="*",
        help="compare: exactly two bench files, BASE.json then HEAD.json",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        metavar="FRAC",
        help="compare: allowed relative degradation before a metric "
        "counts as a regression (default 0.10 = 10%%)",
    )
    bench.add_argument(
        "--min-seconds",
        type=float,
        default=0.005,
        metavar="S",
        help="compare: ignore timings below this noise floor on both "
        "sides (default 0.005s)",
    )
    bench.add_argument(
        "--fields",
        default=None,
        metavar="F1,F2,...",
        help="compare: only judge these metric fields (default: every "
        "*_seconds timing plus speedup/recall/reduction)",
    )
    bench.add_argument(
        "--match",
        default=None,
        metavar="F1,F2,...",
        help="compare: record-identity fields for the join "
        "(default: op,backend,n,k,dim,budget)",
    )
    bench.add_argument(
        "--allow-missing",
        action="store_true",
        help="compare: don't fail when a base record has no head "
        "counterpart (partial head runs)",
    )
    bench.add_argument(
        "--verbose",
        action="store_true",
        help="compare: list every judged metric, not only regressions",
    )
    bench.add_argument(
        "--n",
        type=int,
        default=None,
        help="database size (default: 1000 for kernels, 5000 for "
        "approx_pareto)",
    )
    bench.add_argument("--k", type=int, default=7, help="set cardinality bound")
    bench.add_argument("--dim", type=int, default=6, help="feature dimension")
    bench.add_argument("--queries", type=int, default=10, help="k-nn query count")
    bench.add_argument(
        "--seed",
        type=int,
        default=None,
        help="corpus/sketch seed (default: $REPRO_SEED, else 20030609); "
        "all stochastic generation derives from this one value",
    )
    bench.add_argument(
        "--out",
        type=Path,
        default=None,
        help="result file (default: BENCH_PR3.json for kernels, "
        "BENCH_PR7.json for index_scale, BENCH_PR8.json for approx_pareto)",
    )
    bench.add_argument(
        "--sizes",
        default=None,
        metavar="N1,N2,...",
        help="index_scale database sizes (default: 1000,10000,100000)",
    )
    bench.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="index_scale: exit 1 unless the array core's batched 10-nn "
        "(knn_many) beats the pointer path by at least X on the xtree "
        "backend at the largest size",
    )
    bench.add_argument(
        "--label", default=None, help="tag recorded in every result entry"
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker processes for the parallel ingest benchmark",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="tiny workload for CI smoke runs (overrides --n/--k)",
    )
    bench.add_argument(
        "--shard-counts",
        default=None,
        metavar="K1,K2,...",
        help="shard_scale: shard counts to sweep (default: 1,2,4; the "
        "first count is the speedup baseline)",
    )
    bench.add_argument(
        "--shortlists",
        default=None,
        metavar="M1,M2,...",
        help="approx_pareto: Hamming candidate budgets to sweep "
        "(default: 10,20,40,80,160,320 plus the full database)",
    )
    bench.add_argument(
        "--assert-recall",
        type=float,
        default=None,
        metavar="R",
        help="approx_pareto: exit 1 unless some operating point reaches "
        "recall@k >= R while also meeting --assert-reduction",
    )
    bench.add_argument(
        "--assert-reduction",
        type=float,
        default=None,
        metavar="X",
        help="approx_pareto: candidate-reduction factor the asserted "
        "operating point must reach (refined-by-exact / budget)",
    )
    bench.add_argument(
        "--files",
        type=Path,
        nargs="*",
        default=None,
        help="report: bench files to tabulate (default: ./BENCH_*.json)",
    )
    _add_obs_args(bench)
    return parser


def _load_mesh(path: Path):
    from repro.io import read_mesh

    return read_mesh(path)


def cmd_ingest(args) -> int:
    from repro.features.cache import FeatureCache
    from repro.features.vector_set_model import VectorSetModel
    from repro.io.database import ObjectDatabase, StoredObject
    from repro.pipeline import Pipeline

    pipeline = Pipeline(resolution=args.resolution)
    model = VectorSetModel(k=args.covers)
    database = ObjectDatabase()
    features = []

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
            StoredObject(
                name=processed.name,
                family=processed.family,
                class_id=processed.class_id,
                grid=processed.grid,
                pose=processed.pose,
            )
        )
        features.append(value)

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
    database.set_features(MODEL_KEY.format(k=args.covers), features)
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


def _open_engine(path: Path, covers: int):
    from repro.io.database import ObjectDatabase

    database = ObjectDatabase.load(path)
    key = MODEL_KEY.format(k=covers)
    if not database.has_features(key):
        raise ReproError(
            f"database has no {key} features; re-ingest with --covers {covers}"
        )
    sets = database.get_features(key)
    return database, sets, FilterRefineEngine(sets, capacity=covers)


def _open_snapshot(path: Path):
    """Load a ``repro db`` layout ready for queries and mutations.

    Dispatches on what is on disk: a directory with a ``sharded.json``
    manifest opens as a :class:`ShardedSimilarityDatabase`, anything
    else as a single :class:`SimilarityDatabase` — callers use the
    common query/mutation surface and never care which they got.
    """
    from repro.db import open_database
    from repro.features.vector_set_model import VectorSetModel

    db = open_database(path)
    db.model = VectorSetModel(k=db.capacity)
    return db


def _voxelize_for(db, path: Path):
    """Raw-voxelize a mesh with the snapshot's pipeline settings (the
    grid is normalized later, inside ``add_grid``/``features_for_grid``)."""
    from repro.pipeline import Pipeline
    from repro.voxel.voxelize import voxelize_mesh

    pipeline = db.pipeline or Pipeline()
    if db.pipeline is None:
        db.pipeline = pipeline
    return voxelize_mesh(
        _load_mesh(path),
        pipeline.resolution,
        margin=pipeline.margin,
        keep_aspect=pipeline.keep_aspect,
    )


def _verify_database(path: Path) -> int:
    """``repro db verify``: exit 0 (ok), 1 (corrupt), 3 (degraded).

    A sharded layout is verified shard by shard with the single-shard
    walk below, plus the sharded-only invariants: a valid manifest and
    every object living on the shard the CRC routing assigns it.  The
    aggregated exit code is the worst per-shard outcome (corrupt
    dominates degraded dominates ok).
    """
    from repro.db.sharded import MANIFEST_NAME

    if path.is_dir() and (path / MANIFEST_NAME).exists():
        return _verify_sharded(path)
    return _verify_single(path)


def _verify_sharded(path: Path) -> int:
    import json as json_module

    from repro.db import ShardedSimilarityDatabase, shard_of
    from repro.db.sharded import (
        MANIFEST_NAME,
        _shard_archive_name,
        _shard_dir_name,
    )

    manifest = json_module.loads((path / MANIFEST_NAME).read_text())
    count = int(manifest["shards"])
    durable = bool(manifest.get("durable"))
    print(f"sharded layout: {count} shards ({'durable' if durable else 'snapshot'})")
    worst = 0
    for i in range(count):
        shard_path = path / (
            _shard_dir_name(i) if durable else _shard_archive_name(i)
        )
        print(f"--- shard {i}: {shard_path.name}")
        try:
            code = _verify_single(shard_path)
        except ReproError as exc:
            print(f"shard {i}: corrupt: {exc}", file=sys.stderr)
            code = 1
        if code == 1 or worst == 1:
            worst = 1
        elif code:
            worst = code
    # Routing invariant: the recovered layout must be one coherent
    # database — every oid on the shard the hash assigns it.
    db = ShardedSimilarityDatabase.load(path)
    try:
        misrouted = [
            (oid, i)
            for i, shard in enumerate(db.shards)
            for oid in shard.object_ids()
            if shard_of(oid, count) != i
        ]
    finally:
        db.close()
    if misrouted:
        for oid, i in misrouted[:5]:
            print(
                f"misrouted: oid {oid} on shard {i}, "
                f"routing says {shard_of(oid, count)}",
                file=sys.stderr,
            )
        worst = 1
    print(f"version vector: {db.version_vector()}")
    print(
        "verify: "
        + {0: "ok", 1: "corrupt", 3: "recovered with degradation"}[worst]
    )
    return worst


def _verify_single(path: Path) -> int:
    """Exit 0 (ok), 1 (corrupt), 3 (degraded) for one shard or layout.

    For a durable directory: CRC-walk every retained snapshot archive
    and WAL segment, then run the recovery ladder in memory and
    ``check_invariants()`` on the recovered index.  Anything the ladder
    had to work around (a corrupt generation, a torn or missing
    segment) is a degradation — the database *answers*, but not from
    the happy path.  For a snapshot file: CRC check + invariants only.
    Dense snapshots get a full CRC walk of every mapped array plus the
    array core's vectorized node-table invariants (child-offset bounds,
    MBR containment, covering-radius validity).
    """
    from repro import wal as wal_module
    from repro.db import DB_FORMAT, SimilarityDatabase
    from repro.index.dense import is_dense_archive, read_dense_archive
    from repro.index.snapshot import read_archive

    degradations: list[str] = []
    durable = path.is_dir()
    dense = not durable and is_dense_archive(path)
    if dense:
        # verify=True walks the stored CRC of every array against the
        # mapped bytes, so bit rot in any node table or feature block is
        # caught here rather than surfacing as wrong query results.
        read_dense_archive(path, DB_FORMAT, verify=True)
    elif durable:
        layout = wal_module.DurableLayout(path)
        layout.read_config()  # raises (-> exit 1) if this is not a durable db
        for generation in layout.generations_on_disk():
            snapshot = layout.snapshot_path(generation)
            try:
                read_archive(snapshot, DB_FORMAT)
            except ReproError as exc:
                degradations.append(str(exc))
        for generation in layout.wal_generations_on_disk():
            segment = layout.wal_path(generation)
            records, error = wal_module.verify_segment(segment)
            if error:
                degradations.append(
                    f"{segment.name}: {error} (after {records} clean records)"
                )
    else:
        read_archive(path, DB_FORMAT)

    db = SimilarityDatabase.load(path)
    try:
        if db._index is not None and hasattr(db._index, "check_invariants"):
            db._index.check_invariants()
    finally:
        db.close()
    report = db.last_recovery
    if report is not None and report.degraded:
        degradations.append(
            f"recovery used generation {report.used_generation} of "
            f"{report.requested_generation} ({report.fallbacks} fallbacks, "
            f"{report.replayed_records} records replayed)"
        )

    print(f"objects:    {len(db)}")
    print("invariants: ok")
    if durable and report is not None:
        print(f"generation: {db.generation} (replayed {report.replayed_records} records)")
    if degradations:
        for message in degradations:
            print(f"degraded: {message}", file=sys.stderr)
        print("verify: recovered with degradation")
        return 3
    print("verify: ok")
    return 0


def cmd_db(args) -> int:
    if args.db_command == "init":
        from repro.db import SimilarityDatabase
        from repro.features.vector_set_model import VectorSetModel
        from repro.pipeline import Pipeline

        if args.shards is not None:
            from repro.db import ShardedSimilarityDatabase

            if args.dense:
                raise ReproError("--dense is not supported with --shards")
            db = ShardedSimilarityDatabase(
                args.covers,
                shards=args.shards,
                backend=args.backend,
                pipeline=Pipeline(resolution=args.resolution),
                model=VectorSetModel(k=args.covers),
                durable=args.durable,
                path=args.database if args.durable else None,
                fsync=args.fsync,
                keep_generations=args.keep_generations,
            )
            if args.durable:
                db.checkpoint()
            else:
                db.save(args.database)
            db.close()
            print(
                f"created {'durable ' if args.durable else ''}sharded "
                f"{args.backend} database ({args.shards} shards) -> "
                f"{args.database}/"
            )
            return 0
        db = SimilarityDatabase(
            args.covers,
            backend=args.backend,
            pipeline=Pipeline(resolution=args.resolution),
            model=VectorSetModel(k=args.covers),
            durable=args.durable,
            path=args.database if args.durable else None,
            fsync=args.fsync,
            keep_generations=args.keep_generations,
            source=args.source,
        )
        if args.durable:
            if args.dense:
                raise ReproError("--dense applies to snapshot files, not --durable")
            db.checkpoint()
            db.close()
            print(
                f"created durable {args.backend} database "
                f"(fsync={args.fsync}) -> {args.database}/"
            )
        else:
            db.save(args.database, dense=args.dense)
            kind = "dense " if args.dense else ""
            print(f"created empty {kind}{args.backend} database -> {args.database}")
        return 0
    if args.db_command == "verify":
        try:
            return _verify_database(args.database)
        except ReproError as exc:
            print(f"verify: corrupt: {exc}", file=sys.stderr)
            return 1

    db = _open_snapshot(args.database)
    if args.db_command == "add":
        from repro.features.cache import FeatureCache

        db.cache = FeatureCache(enabled=not args.no_cache)
        next_oid = max(db.object_ids(), default=-1) + 1
        for path in args.meshes:
            db.add_grid(next_oid, _voxelize_for(db, path))
            print(f"added {path.name} as object {next_oid}")
            next_oid += 1
        db.save(args.database)
        db.close()
        db.cache.flush_stats()
        print(f"{len(db)} objects -> {args.database}")
        return 0
    if args.db_command == "remove":
        missing = [oid for oid in args.ids if not db.remove(oid)]
        for oid in missing:
            print(f"no object with id {oid}", file=sys.stderr)
        db.save(args.database)
        db.close()
        print(f"{len(db)} objects -> {args.database}")
        return 2 if missing else 0
    # compact: rebuild in place; canonical tie-breaking guarantees the
    # re-packed tree answers every query identically.
    db.compact()
    db.save(args.database)
    db.close()
    print(f"compacted {len(db)} objects -> {args.database}")
    return 0


def _query_snapshot(args) -> int:
    if args.name:
        print(
            "--name needs an object-store database; `repro db` snapshots "
            "identify objects by id (query with --mesh)",
            file=sys.stderr,
        )
        return 2
    db = _open_snapshot(args.database)
    grid = _voxelize_for(db, args.mesh)
    query_set = db.pipeline.features_for_grid(grid, db.model, cache=db.cache)
    results, stats = db.knn_query(
        query_set, args.k, mode=args.mode, shortlist=args.shortlist
    )
    print(f"{'rank':>4}  {'object':>8} distance")
    for rank, match in enumerate(results, 1):
        print(f"{rank:>4}  {match.object_id:>8} {match.distance:.4f}")
    print(f"\n{stats}")
    return 0


def cmd_query(args) -> int:
    if args.snapshot:
        return _query_snapshot(args)
    database, sets, engine = _open_engine(args.database, args.covers)
    if args.name:
        names = database.names()
        try:
            query_set = sets[names.index(args.name)]
        except ValueError:
            print(f"no object named {args.name!r} in the database", file=sys.stderr)
            return 2
    else:
        from repro.features.vector_set_model import VectorSetModel
        from repro.pipeline import Pipeline

        pipeline = Pipeline(resolution=args.resolution)
        grid, _ = pipeline.process_mesh(_load_mesh(args.mesh))
        query_set = VectorSetModel(k=args.covers).extract(grid)

    if args.mode == "approx":
        from repro.approx import ApproxFilterRefineEngine, HammingIndex, SetSketcher

        sketcher = SetSketcher(sets[0].shape[1])
        hamming = HammingIndex(sketcher.words)
        for oid, vectors in enumerate(sets):
            hamming.add(oid, sketcher.sketch(vectors))
        approx = ApproxFilterRefineEngine(engine, sketcher, hamming)
        results, stats = approx.knn_query(query_set, args.k, shortlist=args.shortlist)
    else:
        results, stats = engine.knn_query(query_set, args.k)
    print(f"{'rank':>4}  {'name':24} {'family':14} distance")
    for rank, match in enumerate(results, 1):
        obj = database[match.object_id]
        print(f"{rank:>4}  {obj.name:24} {obj.family:14} {match.distance:.4f}")
    print(f"\n{stats}")
    return 0


def cmd_cluster(args) -> int:
    from repro.clustering.optics import distance_rows_from_sets, optics
    from repro.clustering.reachability import (
        auto_cut_level,
        extract_clusters,
        render_reachability_plot,
    )

    database, sets, _ = _open_engine(args.database, args.covers)
    rows = distance_rows_from_sets(sets, capacity=args.covers, n_jobs=args.jobs)
    ordering = optics(len(sets), rows, min_pts=args.min_pts)
    print(render_reachability_plot(
        ordering, height=args.height, max_width=110,
        title=f"{args.database.name} — vector set model (k={args.covers})",
    ))

    eps = args.eps if args.eps is not None else auto_cut_level(ordering)
    clusters, noise = extract_clusters(ordering, eps)
    print(f"\ncut at eps={eps:.4f}: {len(clusters)} clusters, {len(noise)} noise")
    for index, members in enumerate(clusters):
        composition = Counter(database[m].family for m in members)
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


def _aircraft_corpus(rng, n: int, dim: int, spread: float = 100.0):
    """Aircraft-style synthetic corpus for the index benchmarks.

    A dozen tight part families (Gaussian clusters, sigma = 4% of the
    coordinate spread) plus ~5% uniform one-off shapes, mirroring the
    paper's CAD datasets where most objects are variants of a few part
    types and a handful are singletons.
    """
    centers = rng.uniform(0.0, spread, size=(12, dim))
    family = rng.integers(0, len(centers), size=n)
    points = centers[family] + rng.normal(0.0, spread * 0.04, size=(n, dim))
    n_noise = max(1, n // 20)
    points[:n_noise] = rng.uniform(0.0, spread, size=(n_noise, dim))
    return points


def cmd_bench_index_scale(args) -> int:
    """``repro bench index_scale``: array cores vs pointer trees.

    Sweeps database sizes over the aircraft-style clustered corpus and,
    per backend, times 10-nn three ways: the pointer tree, the
    struct-of-arrays core walked one query at a time, and the core's
    batched ``knn_many`` wave traversal.  Every timed configuration is
    first cross-checked against the sequential scan oracle — a
    disagreement aborts the run before anything is written.  A final leg measures snapshot load-to-first-query: the
    ``.npz`` pointer reconstruction versus the cold zero-copy dense
    mmap, then a warm repeat.  One JSON record per measurement goes to
    ``--out`` (default ``BENCH_PR7.json``).
    """
    import tempfile
    import time

    from repro.bench import write_bench
    from repro.db import SimilarityDatabase
    from repro.index import MTree, RStarTree, SequentialScan, XTree
    from repro.index.arraycore import ScanArrayCore, densify
    from repro.obs import span
    from repro.seeding import resolve_seed, spawn

    out = args.out or Path("BENCH_PR7.json")
    if args.sizes:
        sizes = [int(part) for part in args.sizes.split(",")]
    elif args.quick:
        sizes = [2000]
    else:
        sizes = [1_000, 10_000, 100_000]
    # The batched path amortizes per-wave fixed costs across the query
    # batch; quick mode still uses a realistically sized batch so the
    # CI speedup gate measures the amortized regime.
    n_queries = 30 if args.quick else max(1, args.queries)
    dim = args.dim
    knn_k = 10
    #: mtree inserts/queries run the exact O(k^3) metric per comparison;
    #: unbounded sizes would dominate the whole sweep, so the backend is
    #: capped — and the cap is logged, never silent.
    mtree_cap = 10_000
    seed = resolve_seed(args.seed)
    rng = spawn(seed, "bench-index-scale")
    records: list[dict] = []
    speedups: dict[tuple[str, int], float] = {}

    def timed(name, fn, repeat=1):
        best = float("inf")
        result = None
        for _ in range(repeat):
            with span(f"bench.{name}", force=True) as timer:
                result = fn()
            best = min(best, timer.seconds)
        return result, best

    def emit_record(entry: dict) -> None:
        if args.label is not None:
            entry["label"] = args.label
        records.append(entry)

    for n in sizes:
        points = _aircraft_corpus(rng, n, dim)
        queries = rng.uniform(0.0, 100.0, size=(n_queries, dim))
        oracle = SequentialScan(dim)
        for oid, point in enumerate(points):
            oracle.insert(point, oid)
        oracle_core = densify(oracle)
        assert isinstance(oracle_core, ScanArrayCore)
        expected = [oracle_core.knn(q, knn_k) for q in queries]
        # Fan-out 16 for the point trees: a typical R*-tree node size
        # for 6-d data; pointer baseline and array core walk the same
        # tree, so the comparison is capacity-for-capacity fair.
        for backend, make in (
            ("xtree", lambda: XTree(dim, capacity=16)),
            ("rstar", lambda: RStarTree(dim, capacity=16)),
            ("scan", lambda: SequentialScan(dim)),
        ):
            tree = make()
            _, build_s = timed(f"build.{backend}", lambda: [
                tree.insert(point, oid) for oid, point in enumerate(points)
            ])
            core, densify_s = timed(f"densify.{backend}", tree.dense_core)
            core.check_invariants()
            # Oracle cross-check BEFORE timing anything: all three paths
            # must reproduce the scan results exactly, or nothing is
            # written.
            for q, want in zip(queries, expected):
                got_core = core.knn(q, knn_k)
                got_tree = tree.knn(q, knn_k)
                if got_core != want or got_tree != want:
                    raise ReproError(
                        f"{backend} n={n}: knn disagrees with the scan oracle"
                    )
            if core.knn_many(queries, knn_k) != expected:
                raise ReproError(
                    f"{backend} n={n}: knn_many disagrees with the scan oracle"
                )
            _, pointer_s = timed(
                f"knn.pointer.{backend}",
                lambda: [tree.knn(q, knn_k) for q in queries],
                repeat=3,
            )
            _, core_s = timed(
                f"knn.core.{backend}",
                lambda: [core.knn(q, knn_k) for q in queries],
                repeat=3,
            )
            _, batched_s = timed(
                f"knn.batched.{backend}",
                lambda: core.knn_many(queries, knn_k),
                repeat=5,
            )
            speedup = pointer_s / batched_s if batched_s else float("inf")
            speedups[(backend, n)] = speedup
            emit_record({
                "op": "index_knn",
                "backend": backend,
                "n": n,
                "dim": dim,
                "k": knn_k,
                "queries": n_queries,
                "capacity": 16 if backend != "scan" else None,
                "build_seconds": round(build_s, 6),
                "densify_seconds": round(densify_s, 6),
                "pointer_seconds": round(pointer_s, 6),
                "core_seconds": round(core_s, 6),
                "batched_seconds": round(batched_s, 6),
                "speedup": round(speedup, 2),
            })
            print(
                f"index_knn {backend:6} n={n:>7}  pointer {pointer_s:9.4f}s  "
                f"core {core_s:9.4f}s  batched {batched_s:9.4f}s  "
                f"speedup {speedup:6.1f}x"
            )

        # mtree: vector sets under the exact matching metric.
        if n > mtree_cap:
            print(f"index_knn mtree  n={n:>7}  skipped (capped at {mtree_cap})")
            emit_record({
                "op": "index_knn",
                "backend": "mtree",
                "n": n,
                "skipped": f"capped at {mtree_cap}",
            })
        else:
            from repro.core.min_matching import min_matching_distance

            set_k = 4
            sets = [
                rng.standard_normal((int(rng.integers(1, set_k + 1)), dim))
                for _ in range(n)
            ]
            # 50 queries minimum: the PR 7 run capped this at 3, which
            # left the mtree core's 0.93x "regression" inside the noise
            # floor of a sub-200ms measurement.
            mtree_queries = max(50, n_queries)
            query_sets = [
                rng.standard_normal((2, dim)) for _ in range(mtree_queries)
            ]
            mtree = MTree(min_matching_distance, capacity=16)
            _, build_s = timed("build.mtree", lambda: [
                mtree.insert(s, oid) for oid, s in enumerate(sets)
            ])
            mcore, densify_s = timed("densify.mtree", mtree.dense_core)
            mcore.check_invariants()
            dists = np.array(
                [[min_matching_distance(q, s) for s in sets] for q in query_sets]
            )
            m_expected = []
            for qi, q in enumerate(query_sets):
                order = np.lexsort((np.arange(n), dists[qi]))[:knn_k]
                want = [(int(o), float(dists[qi][o])) for o in order]
                m_expected.append(want)
                if mcore.knn(q, knn_k) != want or mtree.knn(q, knn_k) != want:
                    raise ReproError(
                        f"mtree n={n}: knn disagrees with the scan oracle"
                    )
            if mcore.knn_many(query_sets, knn_k) != m_expected:
                raise ReproError(
                    f"mtree n={n}: knn_many disagrees with the scan oracle"
                )
            _, pointer_s = timed(
                "knn.pointer.mtree",
                lambda: [mtree.knn(q, knn_k) for q in query_sets],
            )
            _, core_s = timed(
                "knn.core.mtree", lambda: [mcore.knn(q, knn_k) for q in query_sets]
            )
            # Pointer vs the scalar dense core: the pair
            # SimilarityDatabase chooses between for the mtree backend.
            speedup = pointer_s / core_s if core_s else float("inf")
            emit_record({
                "op": "index_knn",
                "backend": "mtree",
                "n": n,
                "dim": dim,
                "k": knn_k,
                "queries": len(query_sets),
                "build_seconds": round(build_s, 6),
                "densify_seconds": round(densify_s, 6),
                "pointer_seconds": round(pointer_s, 6),
                "core_seconds": round(core_s, 6),
                "speedup": round(speedup, 2),
            })
            print(
                f"index_knn mtree  n={n:>7}  pointer {pointer_s:9.4f}s  "
                f"core {core_s:9.4f}s  speedup {speedup:6.1f}x"
            )

    # Snapshot load-to-first-query: .npz pointer reconstruction vs cold
    # zero-copy dense mmap vs a warm repeat, at the largest db-scale size.
    db_n = min(max(sizes), 10_000)
    set_k = 5
    db = SimilarityDatabase(set_k, backend="xtree")
    for oid in range(db_n):
        db.add(oid, rng.standard_normal((int(rng.integers(1, set_k + 1)), dim)))
    query_set = rng.standard_normal((2, dim))
    want = db.knn_query(query_set, knn_k)[0]
    with tempfile.TemporaryDirectory(prefix="repro-bench-snap-") as tmp:
        npz_path = Path(tmp) / "snap.npz"
        dense_path = Path(tmp) / "snap.dense"
        db.save(npz_path)
        db.save(dense_path, dense=True)

        start = time.perf_counter()
        npz_db = SimilarityDatabase.load(npz_path)
        npz_load_s = time.perf_counter() - start
        npz_first = npz_db.knn_query(query_set, knn_k)[0]
        npz_s = time.perf_counter() - start

        start = time.perf_counter()
        dense_db = SimilarityDatabase.load(dense_path)
        dense_load_s = time.perf_counter() - start
        dense_first = dense_db.knn_query(query_set, knn_k)[0]
        dense_s = time.perf_counter() - start

        _, warm_s = timed(
            "snapshot.warm_query",
            lambda: dense_db.knn_query(query_set, knn_k)[0],
            repeat=3,
        )
        if npz_first != want or dense_first != want:
            raise ReproError("snapshot load changed 10-nn results")
        emit_record({
            "op": "snapshot_load_first_query",
            "backend": "xtree",
            "n": db_n,
            "dim": dim,
            "k": knn_k,
            "npz_bytes": npz_path.stat().st_size,
            "dense_bytes": dense_path.stat().st_size,
            "npz_load_seconds": round(npz_load_s, 6),
            "npz_seconds": round(npz_s, 6),
            "dense_load_seconds": round(dense_load_s, 6),
            "dense_cold_seconds": round(dense_s, 6),
            "warm_query_seconds": round(warm_s, 6),
            "load_speedup": round(npz_load_s / dense_load_s, 2)
            if dense_load_s
            else float("inf"),
            "speedup": round(npz_s / dense_s, 2) if dense_s else float("inf"),
        })
        print(
            f"snapshot  n={db_n}  npz load {npz_load_s:.4f}s "
            f"(+query {npz_s:.4f}s)  dense load {dense_load_s:.4f}s "
            f"(+query {dense_s:.4f}s)  warm query {warm_s:.4f}s"
        )

    write_bench(out, records, suite="index_scale", seed=seed, label=args.label)
    print(f"\nwrote {out}")
    if args.assert_speedup is not None:
        gate = speedups[("xtree", max(sizes))]
        if gate < args.assert_speedup:
            print(
                f"FAIL: xtree 10-nn speedup {gate:.1f}x is below the "
                f"required {args.assert_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"speedup gate ok: xtree 10-nn {gate:.1f}x >= "
            f"{args.assert_speedup:.1f}x"
        )
    return 0


def _aircraft_set_corpus(rng, n: int, dim: int, set_k: int, spread: float = 100.0):
    """Aircraft-style synthetic *vector-set* corpus, centroid-degenerate.

    Each object is a set of *set_k* cover vectors drawn from one of 24
    part-family prototype sets (tight Gaussian noise, sigma = 4% of the
    coordinate spread), plus ~5% ragged uniform-noise outliers.  Every
    family's prototype set is re-centered onto the same global centroid,
    so a single aggregated vector carries no family signal — the regime
    the paper's set-of-vectors argument targets, where the centroid
    filter must refine nearly the whole database while element-wise
    structure still separates families cleanly.
    """
    n_families = 24
    prototypes = rng.uniform(0.0, spread, size=(n_families, set_k, dim))
    center = np.full(dim, spread / 2.0)
    prototypes += (center - prototypes.mean(axis=1))[:, None, :]
    families = rng.integers(0, n_families, size=n)
    sets = []
    for i in range(n):
        noise = rng.normal(0.0, spread * 0.04, size=(set_k, dim))
        sets.append(prototypes[families[i]] + noise)
    for i in range(max(1, n // 20)):
        m = int(rng.integers(1, set_k + 1))
        sets[i] = rng.uniform(0.0, spread, size=(m, dim))
    return sets


def cmd_bench_approx_pareto(args) -> int:
    """``repro bench approx_pareto``: approximate tier vs the exact oracle.

    Builds the aircraft-style vector-set corpus, runs every query
    through the exact filter-refine engine (the oracle), then sweeps
    Hamming shortlist budgets through the sketch tier and reports one
    Pareto operating point per budget: recall@k against the oracle,
    candidate reduction (exact refinements / budget) and wall-clock
    speedup.  Every approximate result set is cross-checked against the
    oracle *before* anything is written: result oids must exist, ranks
    must dominate the oracle's distances, and the full-database budget
    must reproduce the exact results identically — any violation aborts
    the run.
    """
    from repro.approx import ApproxFilterRefineEngine, HammingIndex, SetSketcher
    from repro.bench import write_bench
    from repro.core.queries import FilterRefineEngine
    from repro.obs import span
    from repro.seeding import resolve_seed, spawn

    out = args.out or Path("BENCH_PR8.json")
    seed = resolve_seed(args.seed)
    n = args.n or (2000 if args.quick else 5000)
    set_k = args.k
    dim = args.dim
    knn_k = 10
    n_queries = min(50, n) if not args.quick else min(25, n)
    rng = spawn(seed, "bench-approx-corpus", n, dim, set_k)
    sets = _aircraft_set_corpus(rng, n, dim, set_k)

    # Queries: perturbed copies of random corpus objects — the
    # near-duplicate retrieval workload the approximate tier targets.
    query_rng = spawn(seed, "bench-approx-queries", n, dim, set_k)
    query_ids = query_rng.choice(n, size=n_queries, replace=False)
    queries = [
        sets[i] + query_rng.normal(0.0, 1.0, size=sets[i].shape)
        for i in query_ids
    ]

    def timed(name, fn, repeat=1):
        best = float("inf")
        result = None
        for _ in range(repeat):
            with span(f"bench.{name}", force=True) as timer:
                result = fn()
            best = min(best, timer.seconds)
        return result, best

    engine = FilterRefineEngine(sets, capacity=set_k)
    sketcher = SetSketcher(dim, seed=seed)
    hamming = HammingIndex(sketcher.words)
    for oid, vectors in enumerate(sets):
        hamming.add(oid, sketcher.sketch(vectors))
    approx = ApproxFilterRefineEngine(engine, sketcher, hamming)

    def run_exact():
        out = []
        for q in queries:
            out.append(engine.knn_query(q, knn_k))
        return out

    exact_runs, exact_s = timed("approx.exact_oracle", run_exact)
    exact_results = [results for results, _ in exact_runs]
    mean_refined = float(
        np.mean([stats.exact_computations for _, stats in exact_runs])
    )

    records: list[dict] = []
    records.append({
        "op": "approx_exact_baseline",
        "backend": "exact",
        "n": n,
        "dim": dim,
        "k": knn_k,
        "set_k": set_k,
        "queries": n_queries,
        "exact_seconds": round(exact_s, 6),
        "mean_refined": round(mean_refined, 2),
    })
    records.append({
        "op": "approx_sketch_params",
        "backend": "approx",
        "n": n,
        "params": sketcher.params(),
    })
    print(
        f"exact oracle: n={n} queries={n_queries} k={knn_k}  "
        f"{exact_s:.4f}s  (mean {mean_refined:.0f} refinements/query)"
    )

    if args.shortlists:
        budgets = [int(part) for part in args.shortlists.split(",")]
    else:
        budgets = [b for b in (10, 20, 40, 80, 160, 320) if b < n]
    if n not in budgets:
        budgets.append(n)  # full budget: must equal exact identically

    oid_universe = set(range(n))
    print(f"{'budget':>8} {'recall@10':>10} {'reduction':>10} {'speedup':>8}")
    pareto = []
    for budget in sorted(budgets):
        def run_approx(budget=budget):
            return [
                approx.knn_query(q, knn_k, shortlist=budget)[0] for q in queries
            ]

        approx_results, approx_s = timed(f"approx.budget_{budget}", run_approx)
        overlaps = []
        for qi, (got, want) in enumerate(zip(approx_results, exact_results)):
            got_ids = [m.object_id for m in got]
            if not set(got_ids) <= oid_universe:
                raise ReproError(
                    f"approx budget={budget} query {qi}: returned an oid "
                    "absent from the database"
                )
            if len(got_ids) != len(set(got_ids)):
                raise ReproError(
                    f"approx budget={budget} query {qi}: duplicate results"
                )
            # The approximate answer refines a subset, so rank-for-rank
            # its distances can never beat the oracle's.
            for rank, (gm, wm) in enumerate(zip(got, want)):
                if gm.distance < wm.distance - 1e-12:
                    raise ReproError(
                        f"approx budget={budget} query {qi} rank {rank}: "
                        "distance beats the exact oracle (refine bug)"
                    )
            if budget >= n and got != want:
                raise ReproError(
                    f"approx budget={budget} >= n={n} must equal the "
                    f"exact results (query {qi})"
                )
            truth = {m.object_id for m in want}
            overlaps.append(len(truth & set(got_ids)) / len(truth))
        recall = float(np.mean(overlaps))
        reduction = mean_refined / budget
        speedup = exact_s / approx_s if approx_s else float("inf")
        pareto.append((budget, recall, reduction, speedup))
        records.append({
            "op": "approx_pareto_point",
            "backend": "approx",
            "n": n,
            "dim": dim,
            "k": knn_k,
            "queries": n_queries,
            "budget": budget,
            "approx_seconds": round(approx_s, 6),
            "exact_seconds": round(exact_s, 6),
            "recall": round(recall, 4),
            "reduction": round(reduction, 2),
            "speedup": round(speedup, 2),
        })
        print(
            f"{budget:>8} {recall:>10.3f} {reduction:>9.1f}x {speedup:>7.1f}x"
        )

    if args.label is not None:
        for record in records:
            record["label"] = args.label
    write_bench(out, records, suite="approx_pareto", seed=seed, label=args.label)
    print(f"\nwrote {out}")

    if args.assert_recall is not None or args.assert_reduction is not None:
        want_recall = args.assert_recall or 0.0
        want_reduction = args.assert_reduction or 0.0
        ok = [
            (b, r, red)
            for b, r, red, _ in pareto
            if r >= want_recall and red >= want_reduction
        ]
        if not ok:
            print(
                f"FAIL: no operating point reaches recall@{knn_k} >= "
                f"{want_recall:.2f} at >= {want_reduction:.1f}x candidate "
                "reduction",
                file=sys.stderr,
            )
            return 1
        budget, recall, reduction = ok[0]
        print(
            f"pareto gate ok: budget {budget} reaches recall@{knn_k} "
            f"{recall:.3f} at {reduction:.1f}x reduction"
        )
    return 0


def cmd_bench_shard_scale(args) -> int:
    """``repro bench shard_scale``: scatter-gather scaling across shard counts.

    Builds the aircraft-style vector-set corpus once, then for each
    shard count K times three legs:

    * ingest — each shard's build is timed separately (shards share no
      locks, so the parallel ingest critical path is the slowest
      shard's build; the reported ``ingest_speedup`` is serial total /
      critical);
    * query — per-shard 10-nn service time over the same query batch
      plus the (distance, oid) merge, again with the critical path
      being the slowest shard leg + merge.  The headline ``speedup`` is
      baseline critical / K-shard critical: the factor by which the
      slowest single machine's work shrank.  Pool wall-clock for the
      process-parallel batch path is recorded ungated (on a box with
      >= K cores it approaches the critical path; on fewer cores it
      degenerates to the serial total — a scheduling fact, not a
      property of the sharding);
    * persistence — parallel save/load of the sharded layout.

    Every merged K-shard answer is cross-checked byte-identical against
    the single-shard scan oracle *before* anything is written — a
    disagreement aborts the run.
    """
    import tempfile
    import time

    from repro.bench import write_bench
    from repro.db import ShardedSimilarityDatabase, SimilarityDatabase, shard_of
    from repro.obs import span
    from repro.seeding import resolve_seed, spawn

    out = args.out or Path("BENCH_PR10.json")
    if args.shard_counts:
        counts = [int(part) for part in args.shard_counts.split(",")]
    else:
        counts = [1, 2, 4]
    n = 2000 if args.quick else (args.n or 8000)
    set_k = 5
    dim = args.dim
    knn_k = 10
    n_queries = 16 if args.quick else max(30, args.queries)
    seed = resolve_seed(args.seed)
    rng = spawn(seed, "bench-shard-scale")
    sets = _aircraft_set_corpus(rng, n, dim, set_k)
    # Corpus-like queries (perturbed members): on the centroid-degenerate
    # corpus the filter must refine nearly the whole database, so query
    # cost is data-proportional — the regime where partitioning the data
    # partitions the work.  Uniform random queries would be pruned to a
    # few dozen refinements regardless of n and measure only fixed
    # per-query overhead.
    picks = rng.integers(0, n, size=n_queries)
    queries = [
        sets[int(i)] + rng.normal(0.0, 2.0, size=sets[int(i)].shape)
        for i in picks
    ]

    # The oracle: a single-shard scan-backend build.  Canonical
    # tie-breaking makes every backend and every shard count
    # byte-identical to this.
    oracle = SimilarityDatabase(set_k, backend="scan")
    for oid, arr in enumerate(sets):
        oracle.add(oid, arr)
    expected = [
        [(m.object_id, m.distance) for m in oracle.knn_query(q, knn_k)[0]]
        for q in queries
    ]

    records: list[dict] = []
    speedups: dict[int, float] = {}
    baseline_critical = None
    for shards in counts:
        db = ShardedSimilarityDatabase(set_k, shards=shards, backend="xtree")
        groups: list[list[int]] = [[] for _ in range(shards)]
        for oid in range(n):
            groups[shard_of(oid, shards)].append(oid)
        build_legs = []
        for i, group in enumerate(groups):
            with span(f"bench.shard_build.{i}", force=True) as timer:
                for oid in group:
                    db.add(oid, sets[oid])
            build_legs.append(timer.seconds)
        build_total = sum(build_legs)
        build_critical = max(build_legs)

        # Per-shard query service time under one pinned version vector,
        # then the merge — the exact decomposition scatter-gather runs.
        with db.read_views() as views:
            query_legs = []
            per_shard = []
            for view in views:
                with span("bench.shard_knn", force=True) as timer:
                    answers = [view.knn_query(q, knn_k) for q in queries]
                query_legs.append(timer.seconds)
                per_shard.append(answers)
            with span("bench.shard_merge", force=True) as timer:
                merged = [
                    db._merge_matches(
                        [per_shard[i][qi] for i in range(shards)], knn_k
                    )
                    for qi in range(n_queries)
                ]
            merge_s = timer.seconds
        for qi, want in enumerate(expected):
            got = [(m.object_id, m.distance) for m in merged[qi]]
            if got != want:
                raise ReproError(
                    f"shards={shards}: merged 10-nn disagrees with the "
                    f"scan oracle on query {qi}"
                )
        query_critical = max(query_legs) + merge_s
        query_serial = sum(query_legs) + merge_s

        # Pool wall-clock over the saved layout (recorded, not gated).
        with tempfile.TemporaryDirectory(prefix="repro-bench-shard-") as tmp:
            root = Path(tmp) / "layout"
            with span("bench.shard_save", force=True) as timer:
                db.save(root, n_jobs=min(args.jobs, max(shards, 1)))
            save_s = timer.seconds
            wall_s = None
            if shards >= 2:
                jobs = min(args.jobs, shards)
                db.knn_query_many(queries, knn_k, n_jobs=jobs)  # warm pool
                start = time.perf_counter()
                pooled = db.knn_query_many(queries, knn_k, n_jobs=jobs)
                wall_s = time.perf_counter() - start
                for qi, want in enumerate(expected):
                    got = [(m.object_id, m.distance) for m in pooled[qi][0]]
                    if got != want:
                        raise ReproError(
                            f"shards={shards}: pooled 10-nn disagrees with "
                            f"the scan oracle on query {qi}"
                        )
            with span("bench.shard_load", force=True) as timer:
                reloaded = ShardedSimilarityDatabase.load(
                    root, n_jobs=min(args.jobs, max(shards, 1))
                )
            load_s = timer.seconds
            reloaded.close()

        if baseline_critical is None:
            baseline_critical = query_critical
        speedup = (
            baseline_critical / query_critical if query_critical else float("inf")
        )
        speedups[shards] = speedup
        entry = {
            "op": "shard_scale",
            "backend": "xtree",
            "shards": shards,
            "n": n,
            "k": knn_k,
            "set_k": set_k,
            "dim": dim,
            "queries": n_queries,
            "build_seconds": round(build_total, 6),
            "build_critical_seconds": round(build_critical, 6),
            "ingest_speedup": round(build_total / build_critical, 2)
            if build_critical
            else float("inf"),
            "query_serial_seconds": round(query_serial, 6),
            "query_critical_seconds": round(query_critical, 6),
            "merge_seconds": round(merge_s, 6),
            "save_seconds": round(save_s, 6),
            "load_seconds": round(load_s, 6),
            "speedup": round(speedup, 2),
        }
        if wall_s is not None:
            entry["pool_wall_seconds"] = round(wall_s, 6)
        if args.label is not None:
            entry["label"] = args.label
        records.append(entry)
        print(
            f"shard_scale K={shards}  build crit {build_critical:8.3f}s "
            f"(total {build_total:8.3f}s)  query crit "
            f"{query_critical:8.4f}s  merge {merge_s:7.4f}s  "
            f"speedup {speedup:5.2f}x"
        )

    write_bench(out, records, suite="shard_scale", seed=seed, label=args.label)
    print(f"\nwrote {out}")
    if args.assert_speedup is not None:
        top = max(counts)
        gate = speedups[top]
        if gate < args.assert_speedup:
            print(
                f"FAIL: {top}-shard query critical-path speedup "
                f"{gate:.2f}x is below the required "
                f"{args.assert_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"speedup gate ok: {top}-shard query critical path "
            f"{gate:.2f}x >= {args.assert_speedup:.1f}x"
        )
    return 0


def cmd_bench_report(args) -> int:
    """``repro bench report``: tabulate every BENCH_*.json for trajectory
    tracking."""
    from repro.bench import load_bench_files, render_report

    files = args.files if args.files else sorted(Path.cwd().glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json files found (pass --files)", file=sys.stderr)
        return 2
    print(render_report(load_bench_files(files)))
    return 0


def cmd_bench_compare(args) -> int:
    """``repro bench compare BASE.json HEAD.json``: regression sentinel.

    Joins the two files' records on their identity fields, judges every
    comparable metric (timings lower-better, speedup/recall/reduction
    higher-better) against ``--threshold``, and exits 1 on any
    regression — the CI gate against committed baselines.
    """
    from repro.bench import compare_bench, render_comparison
    from repro.bench.compare import DEFAULT_MATCH_FIELDS

    if len(args.paths) != 2:
        print(
            "bench compare needs exactly two files: BASE.json HEAD.json",
            file=sys.stderr,
        )
        return 2
    base, head = args.paths
    fields = args.fields.split(",") if args.fields else None
    match_fields = (
        tuple(args.match.split(",")) if args.match else DEFAULT_MATCH_FIELDS
    )
    comparison = compare_bench(
        base,
        head,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
        fields=fields,
        match_fields=match_fields,
    )
    print(
        render_comparison(
            comparison, threshold=args.threshold, verbose=args.verbose
        )
    )
    if comparison.missing_in_head and not args.allow_missing:
        print(
            f"FAIL: {len(comparison.missing_in_head)} base record(s) have "
            "no head counterpart (pass --allow-missing for partial runs)",
            file=sys.stderr,
        )
        return 1
    if not comparison.ok:
        regressed = comparison.regressions
        print(
            f"FAIL: {len(regressed)} metric(s) regressed beyond "
            f"{args.threshold * 100:.0f}%",
            file=sys.stderr,
        )
        return 1
    if not any(d.skipped is None for d in comparison.deltas):
        print(
            "FAIL: no comparable metrics survived the noise floor — "
            "nothing was actually compared",
            file=sys.stderr,
        )
        return 2
    print("bench compare: ok")
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


def cmd_bench(args) -> int:
    """Time the batched kernels against the per-pair baseline.

    Runs on a seeded synthetic workload shaped like the paper's data
    (ragged sets of up to k d-dimensional vectors), verifies that both
    paths agree, and writes one JSON record per operation with wall
    times and the speedup factor.
    """
    if args.suite == "index_scale":
        return cmd_bench_index_scale(args)
    if args.suite == "approx_pareto":
        return cmd_bench_approx_pareto(args)
    if args.suite == "shard_scale":
        return cmd_bench_shard_scale(args)
    if args.suite == "report":
        return cmd_bench_report(args)
    if args.suite == "compare":
        return cmd_bench_compare(args)

    from repro.bench import write_bench
    from repro.core.batch import PackedSets, match_many, pairwise_matrix
    from repro.core.min_matching import min_matching_distance
    from repro.core.queries import FilterRefineEngine
    from repro.obs import span
    from repro.pipeline import pairwise_distance_matrix
    from repro.seeding import resolve_seed, spawn

    seed = resolve_seed(args.seed)
    n, k = (60, 5) if args.quick else (args.n or 1000, args.k)
    dim = args.dim
    rng = spawn(seed, "bench-kernels")
    sets = [
        rng.standard_normal((int(rng.integers(1, k + 1)), dim)) for _ in range(n)
    ]
    n_queries = min(args.queries, n)
    records = []

    def timed(name: str, fn):
        """One benchmark leg on the span timer.

        ``force=True`` always measures wall time; the span reaches the
        registry/trace only when ``--trace``/``--metrics`` enabled obs,
        so plain bench runs pay nothing beyond two perf_counter calls.
        """
        with span(f"bench.{name}", force=True) as timer:
            result = fn()
        return result, timer.seconds

    def record(op: str, per_pair: float, batched: float, **extra) -> None:
        entry = {
            "op": op,
            "n": n,
            "k": k,
            "dim": dim,
            "per_pair_seconds": round(per_pair, 6),
            "batched_seconds": round(batched, 6),
            "speedup": round(per_pair / batched, 2) if batched else float("inf"),
            **extra,
        }
        if args.label is not None:
            entry["label"] = args.label
        records.append(entry)
        print(
            f"{op:20} per-pair {entry['per_pair_seconds']:>10.3f}s   "
            f"batched {entry['batched_seconds']:>10.3f}s   "
            f"speedup {entry['speedup']:.1f}x"
        )

    # Full pairwise distance matrix (the OPTICS workload).
    matrix_batch, batched = timed(
        "pairwise_matrix.batched", lambda: pairwise_matrix(sets, capacity=k)
    )
    matrix_pp, per_pair = timed(
        "pairwise_matrix.per_pair",
        lambda: pairwise_distance_matrix(sets, min_matching_distance),
    )
    if not np.allclose(matrix_batch, matrix_pp, atol=1e-9):
        raise ReproError("batched pairwise matrix disagrees with per-pair baseline")
    record("pairwise_matrix", per_pair, batched, pairs=n * (n - 1) // 2)

    # Sequential-scan k-nn (the Table 2 baseline row).
    engine = FilterRefineEngine(sets, capacity=k)
    engine_pp = FilterRefineEngine(
        sets, capacity=k, exact_distance=min_matching_distance
    )
    queries = sets[:n_queries]
    results_batch, batched = timed(
        "knn_sequential.batched",
        lambda: [engine.knn_sequential(q, 10)[0] for q in queries],
    )
    results_pp, per_pair = timed(
        "knn_sequential.per_pair",
        lambda: [engine_pp.knn_sequential(q, 10)[0] for q in queries],
    )
    for got, expected in zip(results_batch, results_pp):
        if [m.object_id for m in got] != [m.object_id for m in expected]:
            raise ReproError("batched knn_sequential disagrees with per-pair baseline")
    record("knn_sequential", per_pair, batched, queries=n_queries)

    # One query against the whole database (the refinement kernel).
    packed = PackedSets.pack(sets, capacity=k)
    query = sets[0]
    dists_batch, batched = timed("match_many.batched", lambda: match_many(query, packed))
    dists_pp, per_pair = timed(
        "match_many.per_pair",
        lambda: np.array([min_matching_distance(query, s) for s in sets]),
    )
    if not np.allclose(dists_batch, dists_pp, atol=1e-9):
        raise ReproError("match_many disagrees with per-pair baseline")
    record("match_many", per_pair, batched)

    # -- extraction benchmarks ------------------------------------------
    # The "per-pair" column is the reference extractor (dense O(r^4)
    # max-sum-box per greedy step); "batched" is the incremental engine
    # (blocked scan + cross-iteration x-pair memo).  Both are verified
    # bit-identical before any timing is recorded.
    import shutil
    import tempfile

    from repro.datasets.aircraft import make_aircraft_dataset
    from repro.features.cache import FeatureCache
    from repro.features.cover_sequence import extract_cover_sequence
    from repro.features.vector_set_model import VectorSetModel
    from repro.pipeline import Pipeline

    single_res, single_k = (12, 5) if args.quick else (30, 7)
    parts, _ = make_aircraft_dataset(n=4, seed=seed)
    grid = Pipeline(resolution=single_res).process_parts(parts[:1]).objects[0].grid
    seq_ref = extract_cover_sequence(grid, single_k, engine="reference")
    seq_inc = extract_cover_sequence(grid, single_k, engine="incremental")
    if seq_ref.covers != seq_inc.covers or seq_ref.errors != seq_inc.errors:
        raise ReproError("incremental extraction disagrees with reference oracle")
    _, per_pair = timed(
        "extract_single.reference",
        lambda: extract_cover_sequence(grid, single_k, engine="reference"),
    )
    _, batched = timed(
        "extract_single.incremental",
        lambda: extract_cover_sequence(grid, single_k, engine="incremental"),
    )
    record(
        "extract_single", per_pair, batched,
        resolution=single_res, covers=single_k,
    )

    # End-to-end ingest: serial reference extraction vs parallel
    # incremental extraction with a warm content-addressed cache (the
    # steady-state of repeated `repro ingest` runs).
    n_objects, ingest_res = (12, 12) if args.quick else (200, 15)
    parts, _ = make_aircraft_dataset(n=n_objects, seed=seed)
    grids = [
        obj.grid
        for obj in Pipeline(resolution=ingest_res).process_parts(parts).objects
    ]
    reference_model = VectorSetModel(k=single_k, engine="reference")
    optimized_model = VectorSetModel(k=single_k)
    features_ref, per_pair = timed(
        "ingest.reference", lambda: [reference_model.extract(g) for g in grids]
    )
    cache_root = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        cache = FeatureCache(root=cache_root)
        optimized_model.extract_many(grids, n_jobs=args.jobs, cache=cache)
        features_opt, batched = timed(
            "ingest.warm_cache",
            lambda: optimized_model.extract_many(grids, n_jobs=args.jobs, cache=cache),
        )
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    for got, expected in zip(features_opt, features_ref):
        if not np.array_equal(got, expected):
            raise ReproError("cached/parallel features disagree with reference")
    record(
        "ingest_200", per_pair, batched,
        objects=len(grids), resolution=ingest_res, jobs=args.jobs,
        cache="warm",
    )

    out = args.out or Path("BENCH_PR3.json")
    write_bench(out, records, suite="kernels", seed=seed, label=args.label)
    print(f"\nwrote {out}")
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
    from repro.io.database import ObjectDatabase

    database = ObjectDatabase.load(args.database)
    families = Counter(obj.family for obj in database)
    resolutions = Counter(obj.grid.resolution for obj in database)
    feature_models = Counter(
        model for obj in database for model in obj.features
    )
    print(f"objects:       {len(database)}")
    print(f"families:      {dict(families)}")
    print(f"resolutions:   {dict(resolutions)}")
    print(f"feature sets:  {dict(feature_models)}")
    voxels = [obj.grid.count for obj in database]
    print(f"voxels/object: min={min(voxels)} median={sorted(voxels)[len(voxels)//2]} "
          f"max={max(voxels)}")
    from repro.features.cache import cache_info

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
        "bench": cmd_bench,
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

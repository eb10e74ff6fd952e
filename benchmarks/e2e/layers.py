"""Which callables a traced run wraps, and how spans become layer metrics.

Span names are ``<layer>.<callable>``; the layer is the module name.
Time metrics on the query path are per timed op of the traced pass, so
the self-time ones add up to the mean op wall; build-path ones
(``index.insert_ms``, ``db.core.mutate_ms``, ``db.core.save_ms`` ...) are
per call over the whole run, set-up included.  Counts come from the
``QueryStats`` the program returned and from span counts.
"""

from __future__ import annotations

from statistics import median

from benchmarks.e2e.trace import END, NAME, OP, PARENT, START, Target, aggregate

#: Root span the harness opens around every timed op.
OP_SPAN = "bench.op"


def _pairs(args, kwargs):
    return len


def _wal_bytes(args, kwargs):
    wal, before = args[0], args[0].size
    return lambda _result: wal.size - before


_DB = "repro.db.core:SimilarityDatabase"
_SHARDED = "repro.db.sharded:ShardedSimilarityDatabase"
_ENGINE = "repro.core.queries:FilterRefineEngine"

TARGETS = (
    Target("normalize.process_grid", "repro.pipeline:Pipeline", "process_grid"),
    Target("features.get_or_extract", "repro.features.cache:FeatureCache", "get_or_extract"),
    Target("features.extract", "repro.features.vector_set_model:VectorSetModel", "extract"),
    Target("core.centroid.extended_centroid", "repro.core.centroid", "extended_centroid"),
    Target("index.ranking_chunks", "repro.index.arraycore:RTreeArrayCore",
           "ranking_chunks", generator=True),
    Target("index.insert", "repro.index.rstar:RStarTree", "insert"),
    # dense_core() returns a cached core between mutations; densify is
    # the rebuild it delegates to, so each span is one real densification.
    Target("index.densify", "repro.index.arraycore", "densify"),
    Target("core.queries.engine_init", _ENGINE, "__init__"),
    Target("core.queries.knn_query", _ENGINE, "knn_query"),
    Target("core.queries.range_query", _ENGINE, "range_query"),
    Target("core.queries.knn_refine_subset", _ENGINE, "knn_refine_subset"),
    Target("core.batch.match_many", "repro.core.batch", "match_many", note=_pairs),
    Target("core.batch.hungarian_batch", "repro.core.batch", "hungarian_batch"),
    Target("approx.sketch", "repro.approx.sketch:SetSketcher", "sketch"),
    Target("approx.shortlist", "repro.approx.hamming:HammingIndex", "shortlist"),
    Target("db.core.knn_query", _DB, "knn_query"),
    Target("db.core.range_query", _DB, "range_query"),
    Target("db.core.add", _DB, "add"),
    Target("db.core.add_grid", _DB, "add_grid"),
    Target("db.core.update", _DB, "update"),
    Target("db.core.remove", _DB, "remove"),
    Target("db.core.save", _DB, "save"),
    Target("db.core.checkpoint", _DB, "checkpoint"),
    Target("db.core.open_database", "repro.db.sharded", "open_database"),
    Target("wal.append", "repro.wal:WriteAheadLog", "append", note=_wal_bytes),
    Target("wal.sync", "repro.wal:WriteAheadLog", "sync"),
    Target("db.sharded.knn_query_many", _SHARDED, "knn_query_many"),
    Target("db.sharded.save", _SHARDED, "save"),
    Target("parallel.pool_map", "repro.parallel", "pool_map"),
)

_MUTATIONS = ("db.core.add", "db.core.add_grid", "db.core.update", "db.core.remove")
_SAVES = ("db.core.save", "db.core.checkpoint", "db.sharded.save")
_ENGINE_QUERIES = ("core.queries.knn_query", "core.queries.range_query")
_DB_QUERIES = ("db.core.knn_query", "db.core.range_query")


def layer_metrics(spans: list[list], stats: dict) -> dict[str, float | None]:
    """Every ``PER_LAYER`` metric of one traced run; None where the
    workload never entered the layer.

    *stats* is what the harness counted during the traced pass: ``ops``,
    ``queries`` and the summed ``QueryStats`` fields over them, the
    approximate queries' ``shortlist`` sizes, the sharded ``leg_max``
    seconds per op and ``pool_speedup``, and the ``untraced_wall`` /
    ``traced_wall`` of the same ops.
    """
    timed = aggregate(spans, timed_only=True)
    every = aggregate(spans, timed_only=False)
    ops = stats["ops"]
    queries = stats["queries"]

    def per_op(names, field="total"):
        hit = [timed[name] for name in names if name in timed]
        if not hit:
            return None
        return sum(getattr(agg, field) for agg in hit) * 1e3 / ops

    def per_call(names, field="total"):
        hit = [every[name] for name in names if name in every]
        if not hit:
            return None
        return sum(getattr(a, field) for a in hit) * 1e3 / sum(a.calls for a in hit)

    def per_query(key):
        return stats[key] / queries if queries else None

    out: dict[str, float | None] = {}
    out["normalize.process_grid_ms"] = per_op(["normalize.process_grid"])
    out["features.extract_ms"] = per_op(["features.get_or_extract"])
    lookups = timed.get("features.get_or_extract")
    misses = timed["features.extract"].calls if "features.extract" in timed else 0
    out["features.cache_hit_share"] = (
        1.0 - misses / lookups.calls if lookups else None
    )
    out["core.centroid.centroid_ms"] = per_op(["core.centroid.extended_centroid"])
    out["index.rank_ms"] = per_op(["index.ranking_chunks"])
    out["index.candidates_ranked"] = per_query("candidates_ranked")
    out["index.insert_ms"] = per_call(["index.insert"])
    out["index.densify_ms"] = per_call(["index.densify"])
    out["core.queries.filter_self_ms"] = per_op(_ENGINE_QUERIES, "self_time")
    out["core.queries.refined_per_query"] = per_query("exact_computations")
    blocks = timed.get("core.batch.match_many")
    # Kernel calls made by the blocked k-nn / range loops; the packed
    # approx refine calls the kernel from knn_refine_subset instead.
    blocked_calls = sum(
        1
        for span in spans
        if span[NAME] == "core.batch.match_many"
        and span[OP] is not None
        and spans[span[PARENT]][NAME] in _ENGINE_QUERIES
    )
    out["core.queries.refine_blocks"] = (
        blocked_calls / queries if blocks and queries else None
    )
    out["core.queries.extra_refinements"] = per_query("extra_refinements")
    out["core.queries.pruned_share"] = per_query("pruned_share")
    out["core.queries.engine_build_ms"] = per_call(["core.queries.engine_init"])
    builds = timed.get("core.queries.engine_init")
    out["core.queries.engine_builds"] = float(builds.calls) if builds else 0.0
    out["core.batch.match_many_ms"] = per_op(["core.batch.match_many"], "self_time")
    out["core.batch.hungarian_ms"] = per_op(["core.batch.hungarian_batch"], "self_time")
    out["core.batch.pairs_per_call"] = blocks.notes / blocks.calls if blocks else None
    out["core.batch.us_per_pair"] = (
        blocks.total * 1e6 / blocks.notes if blocks and blocks.notes else None
    )
    out["approx.sketch_ms"] = per_op(["approx.sketch"])
    out["approx.shortlist_ms"] = per_op(["approx.shortlist"])
    out["approx.refine_ms"] = per_op(["core.queries.knn_refine_subset"])
    shortlists = stats["shortlist"]
    out["approx.shortlist_size"] = (
        sum(shortlists) / len(shortlists) if shortlists else None
    )
    out["db.core.query_self_ms"] = per_op(_DB_QUERIES, "self_time")
    out["db.core.mutate_ms"] = per_call(_MUTATIONS)
    out["db.core.save_ms"] = per_call(_SAVES)
    out["db.core.open_ms"] = per_call(["db.core.open_database"])
    out["wal.append_ms"] = per_call(["wal.append"])
    appends = every.get("wal.append")
    syncs = every["wal.sync"].calls if "wal.sync" in every else 0
    out["wal.syncs_per_mutation"] = syncs / appends.calls if appends else None
    out["wal.bytes_per_mutation"] = appends.notes / appends.calls if appends else None

    scatter = per_op(["parallel.pool_map"])
    leg_max = stats["leg_max"]
    out["db.sharded.scatter_ms"] = scatter
    out["db.sharded.leg_max_ms"] = (
        sum(leg_max) * 1e3 / len(leg_max) if leg_max else None
    )
    out["db.sharded.pool_overhead_ms"] = (
        scatter - out["db.sharded.leg_max_ms"] if scatter is not None and leg_max else None
    )
    out["db.sharded.merge_ms"] = per_op(["db.sharded.knn_query_many"], "self_time")
    out["db.sharded.pool_speedup"] = stats["pool_speedup"]
    # The warm-up batches (outside any timed op) are all the same size;
    # the first of them also pays for starting the pool's workers.
    warm_calls = [
        s[END] - s[START]
        for s in spans
        if s[NAME] == "parallel.pool_map" and s[OP] is None
    ]
    out["parallel.pool_start_ms"] = (
        (warm_calls[0] - median(warm_calls[1:])) * 1e3 if len(warm_calls) > 1 else None
    )

    roots = timed[OP_SPAN]
    out["trace.coverage_share"] = 1.0 - roots.self_time / roots.total
    out["trace.overhead_share"] = (
        stats["traced_wall"] - stats["untraced_wall"]
    ) / stats["untraced_wall"]
    return out

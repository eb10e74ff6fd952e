"""Runs one workload in this process: set-up, timed phase, checks, metrics.

``run.py`` starts this in a fresh subprocess per workload.  Load model:
closed loop, one client — the next op is sent when the previous one has
returned; what the harness does between two ops (keeping the answer,
an open cycle now and then) is outside the timed region.

The sandbox shares its two cores.  A neighbour slows everything by
30-40 % for seconds at a time, on anything from 3 % to 90 % of a
ten-second stretch, while the fast tenth of the samples of a fixed piece
of work stays within +-4 %: the interference only ever adds time.  An
untraced run is therefore built from **repeats of identical work**,
spread over the whole run, and a piece of work costs what its fastest
repeat took.  The run goes in rounds, until ``--seconds`` of measured
wall have gone by and three rounds at least:

* set-up — ingest the corpus object by object, save, open, warm up — on
  a fresh directory; ``setup_s`` is the median wall over the rounds, and
  the ingest rate comes from the fastest insert of each object;
* eight cycles of ``open_database`` + first query on an untouched copy
  of what set-up saved, one per variant of the first query, spread
  between the ops of the pass; the metric is the median over the
  variants of each one's fastest cycle;
* one **pass**: the workload's fixed list of ops on the database set-up
  left behind, so op *i* meets the same state in every round, mutations
  and feature-cache fills included.  An op's latency is its fastest
  pass; throughput and the percentiles are computed from those per-op
  latencies, so the percentiles describe the spread between inputs, not
  the machine's.

Nothing is checked against the oracle while ops are timed (a scan of
the mirror between two ops evicts the program's working set and slowed
every op of that pass by a third): an op's first answers are kept, every
later pass must repeat them bit for bit, and the oracle runs after the
last pass, walking the op list and the mirror forward together.

A traced run measures the layers: it installs the wrappers for set-up,
then runs one fixed list of ops on two copies of the saved
database side by side — each op once with the tracer recording and once
with it switched off, alternating which goes first — so the two summed
walls differ by the tracing overhead and not by the machine's drift.
(The switched-off wrapper still costs one attribute test per call, about
0.2 us; at under 100 wrapped calls per op that understates the overhead
by well under 0.1 % of an op.)
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from benchmarks.e2e import oracle
from benchmarks.e2e.inputs import DIMENSION, FIRST_QUERIES, KNN_K, RANGE_EPSILON, SET_K
from benchmarks.e2e.layers import OP_SPAN, TARGETS, layer_metrics
from benchmarks.e2e.metrics import percentile, percentile_supported, samples_beyond
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import WORKLOADS, disk_bytes

#: Rounds (set-up, open cycles, one pass over the op list) an untraced
#: run makes at least.
MIN_ROUNDS = 3
#: ``open_database`` + first query cycles per round (one per variant of
#: the first query), and in a traced run (which has one round).
OPEN_CYCLES_PER_ROUND = FIRST_QUERIES
TRACED_OPEN_CYCLES = FIRST_QUERIES
#: Failure messages kept in the report (all failures are counted).
MAX_MESSAGES = 5


def over_repeats(samples) -> float:
    """What one piece of work costs, from the times of its repeats: the
    fastest one.  The machine's interference only adds time, and with
    three to a dozen repeats nothing else told the quiet repeats from
    the disturbed ones as well (see README.md, "Steadiness")."""
    return min(samples)


def _answer(matches) -> list[tuple[int, float]]:
    return [(int(m.object_id), float(m.distance)) for m in matches]


def _root(tracer, name: str, op=None):
    return tracer.root(name, op=op) if tracer is not None else nullcontext()


class Checker:
    """Counts attempted and failed ops, keeps the first answer to every
    read and measures recall.

    While ops are timed, :meth:`record` only keeps an op's first answers
    and requires every later execution of the op (another pass, the other
    lane) to repeat them bit for bit.  :meth:`verify` runs afterwards, so
    that the oracle does not evict the program's working set between two
    timed ops: it walks the op list and the mirror forward together and
    compares first answers with the oracle on the mirror as it stood at
    that op — always when the op carries a key or is approximate (recall
    is the measured metric), on every ``check_every``-th op otherwise.  Every answer
    must ascend in ``(distance, oid)``.
    """

    def __init__(self, workload):
        self._workload = workload
        self._oracle = oracle.ScanOracle(SET_K, DIMENSION)
        self._first: dict[int, list] = {}  # op index -> [(kind, query, answer)]
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.exact_recalls: list[float] = []
        self.approx_recalls: list[float] = []

    def fail(self, where: str, problem: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{where}: {problem}")

    def record(self, index: int, op, entries) -> None:
        answers = [_answer(matches) for _kind, _query, matches, _stats in entries]
        first = self._first.get(index)
        if first is None:
            self._first[index] = [
                (kind, query, answer)
                for (kind, query, _matches, _stats), answer in zip(entries, answers)
            ]
        elif [answer for _kind, _query, answer in first] != answers:
            self.fail(f"op {index} ({op.kind})", "answer changed between repeats of one op")

    def _against_oracle(self, kind: str, query, answer) -> str | None:
        self._oracle.load(*self._workload.mirror())
        oids, dists = self._oracle.scan(query)
        if kind == "range":
            return oracle.check_range(answer, oids, dists, RANGE_EPSILON)
        if kind == "approx":
            self.approx_recalls.append(oracle.recall(answer, oids, KNN_K))
            return oracle.check_approx(answer, oids, dists, KNN_K)
        problem = oracle.check_knn(answer, oids, dists, KNN_K)
        self.exact_recalls.append(
            1.0 if problem is None else oracle.recall(answer, oids, KNN_K)
        )
        return problem

    def verify(self, ops) -> None:
        inputs = self._workload.inputs
        for index, op in enumerate(ops):
            for kind, query, answer in self._first.get(index, ()):
                problem = oracle.misordered(answer)
                if problem is None and (
                    op.key is not None
                    or kind == "approx"
                    or index % self._workload.check_every == 0
                ):
                    problem = self._against_oracle(kind, query, answer)
                if problem is not None:
                    self.fail(f"op {index} ({kind})", problem)
            inputs.apply(op)

    def answer_digests(self, ops) -> dict[str, str]:
        """Per keyed query, a digest of its bit-exact answer, so two
        workloads on the same queries can be compared across processes."""
        return {
            str(key): hashlib.sha256(
                ";".join(f"{oid}:{dist.hex()}" for oid, dist in answer).encode()
            ).hexdigest()[:16]
            for index, op in enumerate(ops)
            if op.key is not None
            for key, (_kind, _query, answer) in zip(op.key, self._first.get(index, ()))
        }


@dataclass
class PassResult:
    """One run of the op list on one database."""

    ops: int = 0  # completed operations (a batch of 10 counts 10)
    busy: float = 0.0  # summed op wall
    latencies: list[float] = field(default_factory=list)  # one per op
    answers: list[int] = field(default_factory=list)  # queries answered, per op
    queries: int = 0  # exact k-nn and range queries
    candidates_ranked: int = 0
    exact_computations: int = 0
    extra_refinements: int = 0
    pruned_share: float = 0.0
    shortlist: list[int] = field(default_factory=list)
    leg_max: list[float] = field(default_factory=list)


def _run_op(workload, db, op, index, result, checker, tracer) -> None:
    """Time one op against *db*; account for it and keep its answers."""
    weight = workload.weight(op)
    checker.attempted += weight
    completed = False
    with _root(tracer, OP_SPAN, op=index):
        start = perf_counter()
        try:
            raw = workload.execute(db, op)
            completed = True
        except Exception:  # noqa: BLE001 - an op that raised is a failed op
            checker.fail(f"op {index} ({op.kind})", traceback.format_exc())
        elapsed = perf_counter() - start
    result.busy += elapsed
    result.latencies.append(elapsed)
    entries = workload.entries(op, raw) if completed else []
    result.answers.append(len(entries))
    if not completed:
        return
    result.ops += weight
    for kind, _query, _matches, stats in entries:
        if kind == "approx":
            result.shortlist.append(stats.candidates_ranked)
            continue
        result.queries += 1
        result.candidates_ranked += stats.candidates_ranked
        result.exact_computations += stats.exact_computations
        result.extra_refinements += stats.extra_refinements
        result.pruned_share += stats.pruned / (stats.pruned + stats.exact_computations)
    legs = getattr(db, "last_parallel_legs", None)
    if legs:
        result.leg_max.append(max(legs))
    checker.record(index, op, entries)


class OpenCycles:
    """``open_database`` + first 10-nn on an untouched copy of the saved
    database.  Cycle *j* asks variant ``j % FIRST_QUERIES`` of the first
    query; every answer must be the one given before any close."""

    def __init__(self, workload, saved: Path, checker, tracer):
        self._workload = workload
        self._saved = saved
        self._checker = checker
        self._tracer = tracer
        self.expected: list = []  # per variant
        self.walls: list[list[float]] = [[] for _ in range(FIRST_QUERIES)]
        self._count = 0

    def run(self) -> None:
        variant = self._count % FIRST_QUERIES
        self._count += 1
        if self._tracer is not None:
            self._tracer.active = True
        self._checker.attempted += 1
        with _root(self._tracer, "bench.cycle"):
            start = perf_counter()
            db = self._workload.open(self._saved)
            matches, _ = self._workload.first_query(db, variant)
            self.walls[variant].append(perf_counter() - start)
        db.close()
        if _answer(matches) != self.expected[variant]:
            self._checker.fail(
                f"reopen {self._count}", "answer differs from before the close"
            )


def run_pass(workload, lanes, ops, checker, cycles, cycle_count, tracer=None):
    """Run *ops* in order, each once per lane.  A lane is ``(db,
    traced)``; an untraced run has one, a traced run an untraced and a
    traced one over equal databases.  *cycle_count* open cycles are run
    between ops, evenly spread over the pass, so that a slow second on
    the machine hits one of them and not all.  Returns one
    :class:`PassResult` per lane."""
    results = [PassResult() for _ in lanes]
    done = 0
    for index, op in enumerate(ops):
        while done < cycle_count and done * len(ops) <= index * cycle_count:
            cycles.run()
            done += 1
        order = range(len(lanes))
        for lane in order if index % 2 == 0 else reversed(order):
            db, traced = lanes[lane]
            if tracer is not None:
                tracer.active = traced
            _run_op(
                workload, db, op, index, results[lane], checker,
                tracer if traced else None,
            )
    return results


def run_workload(spec: dict) -> dict:
    """Run the workload *spec* names; returns the result document."""
    workdir = Path(spec["workdir"])
    traced = bool(spec["traced"])
    quick = bool(spec["quick"])
    started = perf_counter()
    workload = WORKLOADS[spec["workload"]](spec["seed"], quick)
    inputs_seconds = perf_counter() - started
    tracer = Tracer() if traced else None
    checker = Checker(workload)
    saved, pristine = workdir / "saved", workdir / "pristine"
    cycles = OpenCycles(workload, pristine, checker, tracer)
    setup_walls, insert_walls, passes = [], [], []
    ops = workload.inputs.ops
    if tracer is not None:
        tracer.install(TARGETS)
    try:
        while True:
            if saved.exists():
                shutil.rmtree(saved)
            saved.mkdir()
            with _root(tracer, "bench.setup"):
                start = perf_counter()
                insert_walls.append(workload.build(saved))
                db = workload.open(saved)
                workload.warm_up(db)
                setup_walls.append(perf_counter() - start)
            checker.attempted += 1
            answer = [
                _answer(workload.first_query(db, variant)[0])
                for variant in range(FIRST_QUERIES)
            ]
            if not cycles.expected:
                cycles.expected = answer
            elif answer != cycles.expected:
                checker.fail(
                    f"set-up {len(setup_walls)}", "answer differs from the first build's"
                )
            db.close()
            if pristine.exists():
                shutil.rmtree(pristine)
            shutil.copytree(saved, pristine)
            db = workload.open(saved)
            workload.warm_up(db)
            if tracer is not None:
                break
            (timed,) = run_pass(
                workload, [(db, False)], ops, checker,
                cycles, 2 if quick else OPEN_CYCLES_PER_ROUND,
            )
            passes.append(timed)
            measured = (
                sum(setup_walls)
                + sum(map(sum, cycles.walls))
                + sum(p.busy for p in passes)
            )
            if len(passes) >= (2 if quick else MIN_ROUNDS) and measured >= spec["seconds"]:
                break
            db.close()

        if tracer is not None:
            tracer.active = False
            plain = workload.open(shutil.copytree(saved, workdir / "untraced"))
            workload.warm_up(plain)
            ops = ops[: workload.trace_ops]
            untraced, timed = run_pass(
                workload, [(plain, False), (db, True)], ops, checker,
                cycles, 3 if quick else TRACED_OPEN_CYCLES, tracer,
            )
            speedup = workload.pool_speedup(plain, untraced.latencies)
            plain.close()
            tracer.active = True
        checker.verify(ops)
        inputs_digest = workload.inputs.digest()

        # What the last pass left behind must survive a close: a durable
        # database replays its WAL tail here, before the final checkpoint.
        checker.attempted += 1
        before = _answer(workload.first_query(db)[0])
        db.close()
        db = workload.open(saved)
        if _answer(workload.first_query(db)[0]) != before:
            checker.fail("final reopen", "answer differs from before the close")
        objects = workload.finish(db)
        stored = disk_bytes(saved / "db")
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.cleanup()

    from repro import obs

    if obs.enabled():
        checker.fail("hygiene", "repro.obs was enabled during the run")

    document = {
        "workload": workload.name,
        "seed": spec["seed"],
        "quick": quick,
        "traced": traced,
        "n": workload.n,
        "inputs_digest": inputs_digest,
        "answer_digests": checker.answer_digests(ops),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.messages,
        "inputs_seconds": inputs_seconds,
        "wall_seconds": perf_counter() - started,
    }
    if tracer is None:
        recalls = checker.approx_recalls or checker.exact_recalls
        # One latency per op: over the passes that ran it.
        latencies = [over_repeats(walls) for walls in zip(*(p.latencies for p in passes))]
        waits = [
            latency
            for latency, answers in zip(latencies, timed.answers)
            for _ in range(answers)
        ]
        inserts = [over_repeats(walls) for walls in zip(*insert_walls)]
        document["timed_ops"] = sum(p.ops for p in passes)
        document["timed_seconds"] = sum(p.busy for p in passes)
        document["metrics"] = {
            "setup_s": statistics.median(setup_walls),
            "ingest_objects_per_s": len(inserts) / sum(inserts),
            "query_p50_ms": percentile(waits, 50) * 1e3,
            "query_p95_ms": percentile(waits, 95) * 1e3,
            "ops_per_s": timed.ops / sum(latencies),
            "open_first_query_ms": statistics.median(
                over_repeats(walls) for walls in cycles.walls if walls
            ) * 1e3,
            "recall_at_10": statistics.fmean(recalls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "disk_bytes_per_object": stored / objects,
        }
        if spec.get("raw"):
            document["raw"] = {
                "setup_walls": setup_walls,
                "insert_walls": insert_walls,
                "cycle_walls": cycles.walls,
                "pass_latencies": [p.latencies for p in passes],
                "answers": timed.answers,
            }
        document["samples"] = {
            "rounds": len(passes),
            "ops_per_pass": len(latencies),
            "query_waits": len(waits),
            "beyond_p95": samples_beyond(len(waits), 95),
            "p95_supported": percentile_supported(len(waits), 95),
            "setup_repeats": len(setup_walls),
            "open_cycles": sum(map(len, cycles.walls)),
            "recall_queries": len(recalls),
        }
    else:
        stats = {
            "ops": len(timed.latencies),
            "queries": timed.queries,
            "candidates_ranked": timed.candidates_ranked,
            "exact_computations": timed.exact_computations,
            "extra_refinements": timed.extra_refinements,
            "pruned_share": timed.pruned_share,
            "shortlist": timed.shortlist,
            "leg_max": timed.leg_max,
            "pool_speedup": speedup,
            "untraced_wall": untraced.busy,
            "traced_wall": timed.busy,
        }
        document["timed_ops"] = timed.ops
        document["timed_seconds"] = timed.busy
        document["metrics"] = layer_metrics(tracer.spans, stats)
        document["samples"] = {
            "traced_ops": stats["ops"],
            "spans": len(tracer.spans),
            "untraced_wall_s": untraced.busy,
            "traced_wall_s": timed.busy,
        }
        tracer.write_jsonl(spec["trace_path"])
    return document

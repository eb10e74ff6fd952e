"""The benchmark's one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e.run [--workload NAME] [--seed N]
        [--traced | --trace both] [--quick] [--out FILE] [--raw] [--trace-out DIR]

Without ``--workload`` all four workloads run.  ``--trace 0`` (default)
measures the end-to-end metrics, ``--trace 1`` / ``--traced`` the
per-layer ones, ``--trace both`` one after the other.  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` (for a run
of several workloads the metric names are prefixed ``<workload>/``).
``--out`` writes the full report ``agree.py`` compares (with ``--raw``,
every timing sample too).  The exit code is non-zero when any op failed,
an answer was wrong or generated inputs drifted from ``digests.json``.

Each workload runs in a fresh subprocess with BLAS/OpenMP pinned to one
thread, a private temporary directory under ``.bench_e2e/`` in the
checkout and a private ``REPRO_CACHE_DIR``, all removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if __package__ in (None, ""):
    # Started by file path: make ``benchmarks.e2e`` importable.
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.inputs import DEFAULT_SEED  # noqa: E402
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = (
    "parts_grid_knn",
    "degenerate_exact_knn",
    "sharded_batch_knn",
    "mixed_durable_rw",
)
DEFAULT_SECONDS = 20.0
QUICK_SECONDS = 0.5
#: A workload subprocess is killed after this long; the benchmark
#: contract gives a run 180 s.
CHILD_TIMEOUT = 170.0
DIGESTS = Path(__file__).with_name("digests.json")
_THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: glibc raises its mmap threshold the first time a large block is freed,
#: so the same allocation is a page-faulting mmap early in a process and
#: a heap block later: open + first query ran in 28 ms or 16 ms depending
#: on what the process had freed before.  Fixing the thresholds switches
#: that adjustment off.
_ALLOCATOR_PINS = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}
#: Environment switches of the program that would change what is measured.
_PROGRAM_SWITCHES = (
    "REPRO_SEED",
    "REPRO_CRASH_POINT",
    "REPRO_AIRCRAFT_N",
    "REPRO_MAXBOX_BLOCK_BYTES",
)


def _child_environment(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    for name in _THREAD_PINS:
        env[name] = "1"
    env.update(_ALLOCATOR_PINS)
    for name in _PROGRAM_SWITCHES:
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(workdir / "repro_cache")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
    return env


def run_child(spec: dict) -> dict:
    """Run one workload in a fresh subprocess; returns its document."""
    scratch = ROOT / ".bench_e2e"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec['workload']}-", dir=scratch))
    try:
        spec = {**spec, "workdir": str(workdir)}
        spec.setdefault("trace_path", str(workdir / "trace.jsonl"))
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.run", "--child", str(spec_path)],
            cwd=ROOT,
            env=_child_environment(workdir),
            stdout=sys.stderr,  # the result travels by file, chatter by stderr
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            # The group holds the workload's pool workers too.
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise SystemExit(f"{spec['workload']}: no result after {CHILD_TIMEOUT} s")
        result_path = workdir / "result.json"
        if code != 0 or not result_path.exists():
            raise SystemExit(f"{spec['workload']}: workload process exited with {code}")
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it


def child_main(spec_path: str) -> int:
    from benchmarks.e2e.harness import run_workload

    spec = json.loads(Path(spec_path).read_text())
    document = run_workload(spec)
    Path(spec["workdir"], "result.json").write_text(json.dumps(document))
    return 0


def _pinned_digest(seed: int, quick: bool, workload: str) -> str | None:
    pins = json.loads(DIGESTS.read_text())
    return pins.get(f"{seed}{'-quick' if quick else ''}", {}).get(workload)


def _units(traced: bool) -> dict[str, str]:
    table = PER_LAYER if traced else END_TO_END
    return {metric.name: metric.unit for metric in table}


def _print_document(document: dict) -> None:
    kind = "per-layer (traced)" if document["traced"] else "end-to-end (untraced)"
    print(f"== {document['workload']}  {kind}  seed {document['seed']}  n {document['n']}")
    print(f"   inputs_digest {document['inputs_digest']}")
    units = _units(document["traced"])
    for name, value in document["metrics"].items():
        shown = "absent" if value is None else f"{value:.6g} {units[name]}"
        print(f"   {name:36s} {shown}")
    share = document["failed"] / document["attempted"]
    print(
        f"   {'failed_op_share':36s} {share:.6g} ratio "
        f"({document['failed']} of {document['attempted']} ops)"
    )
    samples = ", ".join(f"{k}={v}" for k, v in document["samples"].items())
    print(f"   samples: {samples}; {document['wall_seconds']:.1f} s wall")
    for message in document["failures"]:
        print(f"   FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured wall of an untraced run")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--traced", action="store_const", const="1", dest="trace")
    parser.add_argument("--quick", action="store_true", help="n/10 smoke run")
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument("--trace-out", type=Path, help="keep span files in this directory")
    parser.add_argument("--raw", action="store_true", help="keep every timing sample in --out")
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child)
    if not (SRC / "repro").is_dir():
        print(f"{SRC}/repro not found: run from a checkout of the repository", file=sys.stderr)
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    if args.trace_out:
        args.trace_out.mkdir(parents=True, exist_ok=True)

    documents = []
    for name in names:
        for traced in modes:
            spec = {
                "workload": name,
                "seed": args.seed,
                "seconds": seconds,
                "traced": traced,
                "quick": args.quick,
                "raw": args.raw,
            }
            if traced and args.trace_out:
                spec["trace_path"] = str(args.trace_out / f"{name}.spans.jsonl")
            document = run_child(spec)
            pinned = _pinned_digest(args.seed, args.quick, name)
            if pinned is not None and pinned != document["inputs_digest"]:
                document["failed"] += 1
                document["failures"].append(
                    f"inputs drifted: digest {document['inputs_digest']} "
                    f"but digests.json pins {pinned}"
                )
            documents.append(document)

    # Same corpus, same queries: the sharded answers must be the
    # single-database answers, bit for bit.
    for traced in modes:
        by_name = {d["workload"]: d for d in documents if d["traced"] == traced}
        plain = by_name.get("degenerate_exact_knn")
        sharded = by_name.get("sharded_batch_knn")
        if not (plain and sharded):
            continue
        ours, theirs = sharded["answer_digests"], plain["answer_digests"]
        differing = [key for key in ours if key in theirs and ours[key] != theirs[key]]
        if differing or not set(ours) & set(theirs):
            sharded["failed"] += max(1, len(differing))
            sharded["failures"].append(
                f"answers to queries {differing[:5]} differ from degenerate_exact_knn's"
            )

    for document in documents:
        _print_document(document)
    if args.out:
        report = {
            "schema": "repro-e2e/1",
            "seed": args.seed,
            "quick": args.quick,
            "seconds": seconds,
            "runs": documents,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    failed = sum(d["failed"] for d in documents)
    metrics = {}
    for document in documents:
        prefix = "" if len(names) == 1 and len(modes) == 1 else f"{document['workload']}/"
        units = _units(document["traced"])
        for name, value in document["metrics"].items():
            # The contract wants every per-layer metric from every
            # workload; a layer the workload never enters did no work.
            metrics[prefix + name] = {
                "value": 0.0 if value is None else value,
                "unit": units[name],
            }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(d["attempted"] for d in documents),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Do two complete sets of runs of one commit agree?

    PYTHONPATH=src python -m benchmarks.e2e.agree --runs A.json B.json
    PYTHONPATH=src python -m benchmarks.e2e.agree --repeat 2 --runs A.json B.json

Each file is a ``run.py --trace both --out`` report.  ``--repeat N``
produces the N named files first.  Every end-to-end metric of every
workload is printed with both values and the relative gap in the
direction that is worse; the exit code is non-zero when a gap exceeds
that metric's bound, when a count-type layer metric differs at all, or
when the ``inputs_digest`` of a workload differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER  # noqa: E402


def worse_by(metric, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*
    (negative when it is better)."""
    change = (second - first) / abs(first)
    return change if metric.better == "lower" else -change


def _index(report: dict) -> dict:
    return {(run["workload"], run["traced"]): run for run in report["runs"]}


def compare(first: dict, second: dict, out=sys.stdout) -> list[str]:
    """Print the comparison; returns the disagreements."""
    problems: list[str] = []
    runs_a, runs_b = _index(first), _index(second)
    if first["seed"] != second["seed"] or first["quick"] != second["quick"]:
        problems.append("the two reports were not made with the same seed and sizes")
    for key in sorted(set(runs_a) | set(runs_b)):
        if key not in runs_a or key not in runs_b:
            problems.append(f"{key[0]} ({'traced' if key[1] else 'untraced'}): in one report only")
            continue
        run_a, run_b = runs_a[key], runs_b[key]
        workload, traced = key
        if run_a["inputs_digest"] != run_b["inputs_digest"]:
            problems.append(f"{workload}: inputs_digest differs")
        if traced:
            for layer in PER_LAYER:
                a, b = run_a["metrics"][layer.name], run_b["metrics"][layer.name]
                if layer.exact and a != b:
                    problems.append(f"{workload}: {layer.name} is a count but {a!r} != {b!r}")
            continue
        print(f"{workload}", file=out)
        for metric in END_TO_END:
            a, b = run_a["metrics"][metric.name], run_b["metrics"][metric.name]
            gap = max(worse_by(metric, a, b), worse_by(metric, b, a))
            verdict = "ok" if gap <= metric.bound else "DISAGREE"
            print(
                f"  {metric.name:24s} {a:14.6g} {b:14.6g} {metric.unit:6s} "
                f"gap {gap:7.2%}  bound {metric.bound:4.0%}  {verdict}",
                file=out,
            )
            if gap > metric.bound:
                problems.append(
                    f"{workload}: {metric.name} {a:.6g} vs {b:.6g} is a "
                    f"{gap:.1%} gap, bound {metric.bound:.0%}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", nargs="+", type=Path, required=True)
    parser.add_argument("--repeat", type=int, help="produce the named reports first")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if len(args.runs) < 2:
        parser.error("--runs needs at least two reports")
    if args.repeat is not None:
        if args.repeat != len(args.runs):
            parser.error("--repeat must equal the number of --runs files")
        from benchmarks.e2e import run

        for path in args.runs:
            options = ["--trace", "both", "--out", str(path)]
            if args.seed is not None:
                options += ["--seed", str(args.seed)]
            if args.quick:
                options.append("--quick")
            if run.main(options) != 0:
                print(f"{path}: the run itself failed", file=sys.stderr)
                return 1
    reports = [json.loads(path.read_text()) for path in args.runs]
    problems: list[str] = []
    for other, path in zip(reports[1:], args.runs[1:]):
        print(f"== {args.runs[0]} vs {path}")
        problems += compare(reports[0], other)
    for problem in problems:
        print(f"DISAGREE {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

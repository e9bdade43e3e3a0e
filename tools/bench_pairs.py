"""Paired benchmark runs of two checkouts of polarmub.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --workload catalog-cold \\
        --workload mub-dense --pairs 10 --seconds 10 --seed-base 7000

Each --workload, in the order given, gets its own pairs and its own report.
Pair i (1 to --pairs) runs `perfbench/run.py --trace 0` once in each
checkout, both with seed seed-base + i: the parent first in odd pairs, the
change first in even ones, so that neither side always runs on a host
warmed by the other.  Before every run `src/polarmub/__pycache__` is
deleted in both checkouts.  With PYTHONDONTWRITEBYTECODE=1 set, every
worker compiles the package from source, and a stale cache left on one
side by an earlier run would lower that side's `setup_s` and raise its
`peak_rss_mb`.

A workload's report gives each pair's values, then, per end-to-end metric
of the change's BENCHMARK.json, each side's median and quartiles, the
relative change of the median, the number of pairs in which the change is
better, and whether the gap between the medians exceeds the parent's
interquartile range, then each job's median time over the pairs.  The exit
status is 1 if any run of any workload failed or read `correct: false`.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run: its result line, with the per-job medians
    of its detail line under "jobs"."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {checkout}: perfbench/run.py exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["jobs"] = json.loads(lines[-2])["jobs_median_s"]
    return result


def value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(args: argparse.Namespace, workload: str, better: dict[str, str]) -> list[str]:
    """Run the pairs of one workload and print its report.  Returns the runs
    that failed or read `correct: false`."""
    pairs = []
    for i in range(1, args.pairs + 1):
        seed = args.seed_base + i
        order = (0, 1) if i % 2 else (1, 0)
        runs: dict[str, dict] = {}
        for k in order:
            for checkout in args.checkouts:
                shutil.rmtree(checkout / "src" / "polarmub" / "__pycache__", ignore_errors=True)
            runs[SIDES[k]] = run(args.checkouts[k], workload, seed, args.seconds)
        pairs.append({"pair": i, **runs})
        values = "  ".join(
            f"{name} {value(runs['parent'], name):.4f} -> {value(runs['change'], name):.4f}"
            for name in better
        )
        print(f"pair {i} (seed {seed}, {SIDES[order[0]]} first): {values}", flush=True)

    for name, direction in better.items():
        sides = {side: [value(p[side], name) for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        (p1, p3), (c1, c3) = quartiles(sides["parent"]), quartiles(sides["change"])
        before, after = statistics.median(sides["parent"]), statistics.median(sides["change"])
        gap = abs(after - before)
        print(
            f"{name}: median {before:.4f} -> {after:.4f} ({(after - before) / before:+.1%};"
            f" change {direction} in {wins}/{len(pairs)};"
            f" parent quartiles {p1:.4f}-{p3:.4f}, change quartiles {c1:.4f}-{c3:.4f};"
            f" median gap {gap:.4f} {'exceeds' if gap > p3 - p1 else 'within'}"
            f" parent IQR {p3 - p1:.4f})"
        )
    jobs = {
        job: {side: statistics.median(p[side]["jobs"][job] for p in pairs) for side in SIDES}
        for job in pairs[0]["change"]["jobs"]
        if all(job in p[side]["jobs"] for p in pairs for side in SIDES)
    }
    for job, medians in jobs.items():
        print(f"job {job}: {1e3 * medians['parent']:.3f} -> {1e3 * medians['change']:.3f} ms")
    bad = [
        f"pair {p['pair']} {side}"
        for p in pairs
        for side in SIDES
        if not p[side]["correct"] or p[side]["failed"]
    ]
    for entry in bad:
        print(f"not correct or failed: {workload} {entry}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args()
    args.checkouts = [args.parent.resolve(), args.change.resolve()]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((args.checkouts[1] / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}

    bad = []
    for workload in args.workload:
        print(f"workload {workload}", flush=True)
        bad += compare(args, workload, better)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

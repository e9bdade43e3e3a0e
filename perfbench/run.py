"""polarmub benchmark: time to a certified result.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run first starts a few processes that only set up the workload, then
repeats the workload, one fresh worker process per repetition
(perfbench/worker.py), until the next repetition would end after S
seconds; at least one repetition runs, and with --trace 1 at least one
untraced and one traced, alternating.  Workers run one after another, so
each is a closed-loop client on one thread.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (medians over repetitions); with --trace 1 the per-layer
ones from the traced repetitions.  The line before it records the
environment, the seeded inputs and every repetition.  Results, and with
--trace 1 the span trees, are also written under .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKDIR, WORKLOADS  # noqa: E402

SETUP_ONLY_RUNS = 5
# Whole run, the first repetition included, stays below the 180 s limit.
RUN_LIMIT_S = 170.0
OUT = ".perfbench"

# Job times reported beside the per-layer metrics: the ROADMAP baseline
# points that fall inside a workload, measured without tracing.
BASELINE_JOBS = {
    "baseline.catalog_w7_2_s": "catalog W_7(2)",
    "baseline.regularity_w3_5_s": "regularity W_3(5)",
    "baseline.unbiasedness_w5_2_s": "unbiasedness W_5(2)",
}


def run_worker(args, setup_only: bool, traced: bool, rep: int, deadline: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--trace", f"{OUT}/spans/{args.workload}-seed{args.seed}-rep{rep}.json"]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["traced"] = traced
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "polarmub" / "__init__.py").is_file():
        print(f"perfbench: no polarmub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (WORKDIR, f"{OUT}/spans", f"{OUT}/results"):
        (ROOT / path).mkdir(parents=True, exist_ok=True)

    start = perf_counter()
    limit = start + RUN_LIMIT_S
    load_start = os.getloadavg()
    try:
        setups = [run_worker(args, True, False, -1, limit) for _ in range(SETUP_ONLY_RUNS)]
        reps: list[dict] = []
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            t0 = perf_counter()
            reps.append(run_worker(args, False, traced, len(reps), limit))
            longest = max(longest, perf_counter() - t0)
            enough = len(reps) >= (2 if args.trace else 1)
            next_end = perf_counter() + longest
            if enough and (next_end > start + args.seconds or next_end > limit):
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    everyone = setups + reps
    attempted = sum(r["attempted"] for r in everyone)
    failed = sum(r["failed"] for r in everyone)
    # Every repetition, traced or not, must produce the same outputs.
    digests = [r["digest"] for r in reps]
    attempted += len(digests) - 1
    failed += sum(d != digests[0] for d in digests[1:])
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    if args.trace:
        values = {
            name: statistics.median_low(r["trace"][name] for r in traced) for name in traced[0]["trace"]
        }
        values["trace.overhead_s"] = statistics.median(r["pass_s"] for r in traced) - statistics.median(
            r["pass_s"] for r in plain
        )
        for metric, job in BASELINE_JOBS.items():
            times = [r["jobs"][job] for r in plain if job in r["jobs"]]
            values[metric] = statistics.median(times) if times else 0.0
    else:
        values = {
            "pass_s": statistics.median(r["pass_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in everyone),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": reps[0]["python"],
            "numpy": reps[0]["numpy"],
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "blas_threads": 1,
        },
        "inputs": reps[0]["inputs"],
        "failures": sorted({f for r in everyone for f in r["failures"]}),
        "repetitions": [
            {
                k: r[k]
                for k in ("traced", "setup_s", "pass_s", "raw_setup_s", "raw_wall_s", "rss_mb", "attempted", "failed")
            }
            for r in everyone
        ],
        "jobs_median_s": {
            job: statistics.median(r["jobs"][job] for r in plain if job in r["jobs"])
            for job in plain[0]["jobs"]
        },
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / OUT / "results" / name).write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

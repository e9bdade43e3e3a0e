"""One closed-loop client: set up one workload, run its job list once in
order on one thread, check every output, and print one JSON line.

Started by run.py, one process per repetition, with the repository's
`src` on PYTHONPATH and the BLAS thread count pinned to 1.  A fresh
process per repetition makes every pass start from the same state: the
package keeps caches (the CLI's spaces, a space's disjointness table) that
a second pass in the same process would find already filled.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer
import workloads
from clock import SpeedClock

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS", help="report per-layer metrics; write the span tree to SPANS")
    parser.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = parser.parse_args()

    clock = SpeedClock()
    raw_start = perf_counter()
    for layer in tracer.LAYERS:
        importlib.import_module(f"polarmub.{layer}")
    import_s, raw_import_s = clock.now(), perf_counter() - raw_start
    import numpy

    refs = json.loads((HERE / "references.json").read_text())
    state: dict = {}
    jobs = workloads.build(args.workload, args.seed, refs, state)
    trace = tracer.Tracer(clock.now) if args.trace else None
    if trace:
        trace.install()

    attempted = failed = 0
    failures: list[str] = []
    times: dict[str, float] = {}
    raw_times: dict[str, float] = {}
    summaries: dict[str, object] = {}

    for job in jobs:
        if args.setup_only and not job.setup:
            break
        attempted += 1
        problem = None
        raw_t0, t0 = perf_counter(), clock.now()
        try:
            out = trace.job(job.name, job.run) if trace else job.run()
        except Exception:
            problem = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
        finally:
            times[job.name] = clock.now() - t0
            raw_times[job.name] = perf_counter() - raw_t0
        if problem is None:
            try:
                summary = workloads.normalize(job.summary(out))
                summaries[job.name] = summary
                if job.check is not None:
                    problem = job.check(summary)
                elif job.name not in refs:
                    problem = "no reference recorded"
                else:
                    problem = workloads.mismatch(summary, refs[job.name])
            except Exception:
                problem = "check raised " + traceback.format_exc(limit=-2).strip().replace("\n", " | ")
        if problem:
            failed += 1
            failures.append(f"{job.name}: {problem}")
    clock.stop()

    def total(durations: dict, setup: bool) -> float:
        return sum(durations[job.name] for job in jobs if job.setup == setup and job.name in durations)

    report = {
        "setup_s": import_s + total(times, True),
        "pass_s": total(times, False),
        "raw_setup_s": raw_import_s + total(raw_times, True),
        "raw_wall_s": total(raw_times, False),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "jobs": times,
        "digest": hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest(),
        "inputs": state["inputs"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trace": None,
    }
    if trace:
        trace.bytes_out = state["cli_bytes"]
        report["trace"] = trace.metrics()
        trace.write(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

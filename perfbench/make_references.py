"""Record references.json: the outputs every reference-checked job must
reproduce.

Run once, from the repository root, at the commit that defines the
benchmark:

    python3 perfbench/make_references.py

Re-recording at a later commit would make the checks compare the program
with itself, so a change that alters an output must not re-run this.  The
recorded values are also checked here against facts known independently
of this implementation (README and the source paper).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

KNOWN = {
    "catalog W_3(2)": {"generators": 15},
    "catalog W_3(3)": {"generators": 40},
    "catalog W_3(5)": {"generators": 156},
    "catalog W_5(2)": {"generators": 135},
    "catalog W_7(2)": {"generators": 2295},
    "catalog W_5(3)": {"generators": 1120},
    "catalog W_3(7)": {"generators": 400},
    "regularity W_3(3)": True,
    "regularity W_3(5)": True,
    "census W_3(3)": {"count_by_size": {"5": 432, "8": 135, "10": 36}},
    "census W_5(2)": {"count_by_size": {"5": 24192, "9": 960}},
    "first_of_size 7 W_3(3)": [],
    "first_of_size 9 W_3(3)": [],
}


def main() -> int:
    from polarmub import polar, spread

    # The seeded inputs are drawn from the small catalogs and their regular
    # spreads, so those come first.
    refs: dict = {}
    for d, n in ((2, 2), (3, 2), (5, 2), (2, 3)):
        key = workloads.label(d, n)
        space = polar.PolarSpace(d, n)
        refs[f"catalog {key}"] = {"generators": len(space.generators)}
        refs[f"regular spread {key}"] = {
            "members": list(spread.construct_symplectic_spread(space).members)
        }

    os.chdir(ROOT)
    Path(workloads.WORKDIR).mkdir(parents=True, exist_ok=True)
    recorded: dict = {}
    for name in workloads.WORKLOADS:
        state: dict = {}
        for job in workloads.build(name, 0, refs, state):
            summary = workloads.normalize(job.summary(job.run()))
            if job.check is not None:
                problem = job.check(summary)
                if problem:
                    raise SystemExit(f"{job.name}: {problem}")
                continue
            if job.name in recorded and recorded[job.name] != summary:
                raise SystemExit(f"{job.name}: differs between workloads")
            recorded[job.name] = summary
        print(f"recorded {name}", file=sys.stderr)

    for name, fact in KNOWN.items():
        got = recorded[name]
        part = {k: got[k] for k in fact} if isinstance(fact, dict) else got
        if part != fact:
            raise SystemExit(f"{name}: recorded {part}, known {fact}")
    if len(recorded["first_of_size 8 W_3(3)"]) != 1:
        raise SystemExit("first_of_size 8 W_3(3): nothing found")

    (HERE / "references.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

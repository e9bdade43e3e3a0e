"""The benchmark's workloads: job lists, seeded inputs and output checks.

Every job is a call into the public API of polarmub.  `run` is the timed
part; `summary` turns its result into plain JSON data outside the timing;
`check` returns a problem string or None.  A job without its own check is
compared field by field with `references.json`, recorded at the commit
that defined the benchmark.  Seeded jobs cannot have a fixed reference and
are checked against closed forms instead.

polarmub is imported inside `build`, never at module level, so that
`run.py` can read the workload names without importing the package and
the worker can time the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("catalog-cold", "spread-warm", "mub-dense", "cli-readme")
# Where cli-readme writes its spread files, relative to the checkout root.
WORKDIR = ".perfbench/work"
TOLERANCE = 1e-9


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    summary: Callable[[object], object]
    check: Callable[[object], str | None] | None = None
    setup: bool = False


def label(d: int, n: int) -> str:
    return f"W_{2 * n - 1}({d})"


def normalize(data):
    """The JSON form of data, so tuples and int keys compare like references."""
    return json.loads(json.dumps(data))


def mismatch(got, want, path: str = "output") -> str | None:
    """First difference between got and want.  Fields named max_deviation
    are compared to the tolerance, never to the recorded value."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            keys = sorted(got) if isinstance(got, dict) else type(got).__name__
            return f"{path}: keys {keys} != {sorted(want)}"
        for key in sorted(want):
            if key == "max_deviation":
                value = got[key]
                if not isinstance(value, float) or not 0 <= value < TOLERANCE:
                    return f"{path}.{key}: {value!r} not below {TOLERANCE}"
                continue
            problem = mismatch(got[key], want[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: {_short(got)} != {_short(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            problem = mismatch(g, w, f"{path}[{i}]")
            if problem:
                return problem
        return None
    if type(got) is not type(want) or got != want:
        return f"{path}: {_short(got)} != {_short(want)}"
    return None


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def catalog_digest(space) -> str:
    """sha256 over (index, rref basis, point mask) of each generator, in order."""
    h = hashlib.sha256()
    for g in space.generators:
        h.update(f"{g.gen_index}|{g.basis}|{g.point_mask}\n".encode())
    return h.hexdigest()


def independently_complete(space, members) -> bool:
    """Complete partial spread, checked from point masks by this file's code:
    members pairwise disjoint and no generator disjoint from their union."""
    cover = 0
    for i in members:
        mask = space.generators[i].point_mask
        if cover & mask:
            return False
        cover |= mask
    return all(g.point_mask & cover for g in space.generators)


def choose_inputs(seed: int, refs: dict) -> dict:
    """The free indices of the seeded jobs.  Every choice does the same work
    and has the same closed-form answer, so seeds change inputs, not load."""
    rng = random.Random(seed)

    def members(key: str) -> list[int]:
        return refs[f"regular spread {key}"]["members"]

    def outside(key: str) -> int:
        count = refs[f"catalog {key}"]["generators"]
        return rng.choice([i for i in range(count) if i not in members(key)])

    return {
        "tu_u": {key: outside(key) for key in ("W_3(3)", "W_3(5)")},
        "sr_lm": {key: rng.sample(members(key), 2) for key in ("W_3(3)", "W_3(5)")},
        "uset_chi": {key: outside(key) for key in ("W_3(3)", "W_5(2)")},
    }


def build(name: str, seed: int, refs: dict, state: dict) -> list[Job]:
    """The job list of one workload; jobs share `state` in list order."""
    from polarmub import cli, counting, mub, pauli, polar, spread

    spaces: dict[str, object] = state.setdefault("spaces", {})
    spreads: dict[str, object] = state.setdefault("spreads", {})
    state.setdefault("cli_bytes", 0)
    inputs = state["inputs"] = choose_inputs(seed, refs)

    def catalog(d: int, n: int, setup: bool) -> Job:
        key = label(d, n)

        def run():
            space = polar.PolarSpace(d, n)
            space.generators  # the first read builds the catalog
            spaces[key] = space
            return space

        return Job(
            f"catalog {key}",
            run,
            lambda space: {"generators": len(space.generators), "digest": catalog_digest(space)},
            setup=setup,
        )

    def regular(key: str) -> Job:
        def run():
            s = spread.construct_symplectic_spread(spaces[key])
            spreads[key] = s
            return s, spread.is_complete(s)

        return Job(
            f"regular spread {key}",
            run,
            lambda out: {
                "members": out[0].members,
                "complete": out[1].complete,
                "witness": out[1].witness,
            },
        )

    def closed_form(key: str, size: int, extra: Callable | None = None):
        """Check of a seeded construction: size, certificate, independent scan."""

        def check(summary):
            if summary["size"] != size:
                return f"size {summary['size']}, closed form {size}"
            if not summary["complete"]:
                return "not certified complete"
            if not independently_complete(spaces[key], summary["members"]):
                return "independent scan finds the members extendible"
            return extra(summary) if extra else None

        return check

    def construction(out):
        ps, cert = out
        return {"members": ps.members, "size": ps.size, "complete": cert.complete}

    jobs: list[Job] = []

    if name == "catalog-cold":
        for d, n in ((2, 4), (3, 3), (7, 2)):
            jobs += [catalog(d, n, setup=False), regular(label(d, n))]

    elif name == "spread-warm":
        keys = ("W_3(2)", "W_3(3)", "W_3(5)", "W_5(2)")
        jobs += [catalog(d, n, setup=True) for d, n in ((2, 2), (3, 2), (5, 2), (2, 3))]
        jobs += [regular(key) for key in keys]
        for key in ("W_3(3)", "W_3(5)"):
            jobs.append(
                Job(f"regularity {key}", lambda key=key: spread.check_regularity(spreads[key]), bool)
            )
        for key in ("W_3(3)", "W_5(2)"):
            jobs.append(
                Job(
                    f"census {key}",
                    lambda key=key: spread.search_maximal(spaces[key], "exhaustive"),
                    _census,
                )
            )
        for key, sizes in (("W_3(3)", (7, 8, 9)), ("W_3(5)", (14, 16))):
            for size in sizes:
                jobs.append(
                    Job(
                        f"first_of_size {size} {key}",
                        lambda key=key, size=size: spread.search_maximal(
                            spaces[key], "first_of_size", size=size
                        ),
                        lambda found: [p.members for p in found],
                    )
                )
        for key, d in (("W_3(3)", 3), ("W_3(5)", 5)):
            u = inputs["tu_u"][key]
            jobs.append(
                Job(
                    f"T(U) {key}",
                    lambda key=key, u=u: spread.complete_TU(spread.construct_TU(spreads[key], u)),
                    construction,
                    closed_form(key, d * d - d + 2, lambda s, u=u: None if u in s["members"] else "u missing"),
                )
            )
            l_idx, m_idx = inputs["sr_lm"][key]
            for k in range((d - 3) // 2 + 1):

                def run_sr(key=key, k=k, l_idx=l_idx, m_idx=m_idx):
                    sr = spread.construct_SR(spreads[key], l_idx, m_idx, k)
                    return sr, spread.is_complete(sr)

                size = {(3, 0): 8, (5, 0): 22, (5, 1): 20}[(d, k)]
                jobs.append(Job(f"block swap k={k} {key}", run_sr, construction, closed_form(key, size)))
        for key, size in (("W_3(3)", 8), ("W_5(2)", 5)):
            chi = inputs["uset_chi"][key]

            def run_uset(key=key, chi=chi):
                u = spread.construct_U_set(spreads[key], chi)
                final, cert = spread.unextendible_from_Uset(spreads[key], u)
                return u, final, cert

            jobs.append(
                Job(
                    f"U-set {key}",
                    run_uset,
                    lambda out: {
                        "carrier": out[0].carrier,
                        "members": out[1].members,
                        "size": out[1].size,
                        "complete": out[2].complete,
                    },
                    closed_form(
                        key, size, lambda s, chi=chi: None if s["carrier"] == chi else "carrier changed"
                    ),
                )
            )
        for key in ("W_3(2)", "W_5(2)", "W_3(3)"):
            jobs.append(
                Job(
                    f"brute force {key}",
                    lambda key=key: counting.brute_force_conjecture(spaces[key], spreads[key]),
                    lambda summary: summary.as_dict(),
                )
            )

    elif name == "mub-dense":
        keys = ("W_3(2)", "W_3(3)", "W_5(2)", "W_3(5)")
        jobs += [catalog(d, n, setup=True) for d, n in ((2, 2), (3, 2), (2, 3), (5, 2))]
        jobs += [regular(key) for key in keys]
        for key in keys:
            jobs.append(
                Job(
                    f"weak UMUB {key}",
                    lambda key=key: mub.certify_weak_umub(spreads[key], tolerance=TOLERANCE),
                    lambda c: {
                        "classes": c.classes,
                        "order": c.order,
                        "complete": c.complete,
                        "witness": c.witness,
                        "max_deviation": c.max_deviation,
                        "valid": c.valid,
                    },
                )
            )
        bases: dict[str, list] = {}
        for key in ("W_5(2)", "W_3(3)"):

            def run_bases(key=key):
                space = spaces[key]
                bases[key] = [
                    mub.eigenprojectors(pauli.class_from_generator(g, space), space.field)
                    for g in space.generators
                ]
                return bases[key]

            def run_pairs(key=key):
                gens = spaces[key].generators
                pairs = [
                    (i, j)
                    for i, j in itertools.combinations(range(len(gens)), 2)
                    if not gens[i].point_mask & gens[j].point_mask
                ]
                b = bases[key]
                return len(pairs), max(mub.unbiasedness(b[i], b[j]) for i, j in pairs)

            jobs.append(
                Job(
                    f"eigenbases {key}",
                    run_bases,
                    lambda out: {"bases": len(out), "projectors": sum(len(b.projectors) for b in out)},
                )
            )
            jobs.append(
                Job(
                    f"unbiasedness {key}",
                    run_pairs,
                    lambda out: {"pairs": out[0], "max_deviation": out[1]},
                )
            )
        for key in ("W_3(5)", "W_5(2)"):

            def run_roundtrip(key=key):
                space = spaces[key]
                return [
                    pauli.generator_from_class(pauli.class_from_generator(g, space), space).gen_index
                    for g in space.generators
                ]

            jobs.append(
                Job(
                    f"class round-trip {key}",
                    run_roundtrip,
                    lambda out: out,
                    lambda out: None if out == list(range(len(out))) else "round-trip changed an index",
                )
            )

    elif name == "cli-readme":
        paths = {fmt: f"{WORKDIR}/spread.{fmt}" for fmt in ("json", "text")}

        def write_files():
            space = polar.PolarSpace(2, 2)
            s = spread.construct_symplectic_spread(space)
            written = {}
            for fmt, path in paths.items():
                data = cli.serialize_spread(s, fmt)
                with open(path, "wb") as fh:
                    fh.write(data)
                written[fmt] = hashlib.sha256(data).hexdigest()
            return written

        jobs.append(Job("serialize spread W_3(2)", write_files, lambda out: out))
        commands = [
            "construct --d 3 --n 2 --method classical",
            "construct --d 3 --n 2 --method tu",
            "construct --d 5 --n 2 --method sr --k 1",
            "construct --d 2 --n 3 --method uset",
            "verify --d 3 --n 2 --check regularity",
            "verify --d 2 --n 2 --check class-roundtrip",
            f"verify --d 2 --n 2 --check complete --in {paths['json']}",
            f"verify --d 2 --n 2 --check complete --format text --in {paths['text']}",
            "search --d 2 --n 2 --mode exhaustive",
            "search --d 3 --n 2 --mode first-of-size --size 8",
            "conjecture --d 2 --n 3 --brute-force",
            "classify --d 2 --n 2",
            "mub --d 2 --n 2 --from-spread classical",
        ]
        for command in commands:

            def run_cli(argv=command.split()):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
                text = out.getvalue()
                state["cli_bytes"] += len(text.encode())
                return code, text

            jobs.append(
                Job(
                    "cli " + command.replace(WORKDIR + "/", ""),
                    run_cli,
                    lambda out: {
                        "exit": out[0],
                        "output": json.loads(out[1]) if out[1].startswith("{") else out[1],
                    },
                )
            )

    else:
        raise ValueError(f"unknown workload {name!r}")
    return jobs


def _census(found) -> dict:
    by_size: dict[int, int] = {}
    for p in found:
        by_size[p.size] = by_size.get(p.size, 0) + 1
    digest = hashlib.sha256(repr(sorted(p.members for p in found)).encode()).hexdigest()
    return {"count_by_size": dict(sorted(by_size.items())), "set_digest": digest}

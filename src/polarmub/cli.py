"""Command-line front end.

Subcommands: construct, verify, search, conjecture, classify, mub.  Every
report is emitted through a stable envelope: JSON output is key-sorted and
byte-identical across runs for a fixed configuration (timing goes to
stderr, never into the payload).  Exit codes: 0 for a successful run with
all certificates valid, 2 for a clean run whose claim failed, 1 for usage
or scale errors.

The argparse parser is built on the first `run` and reused by every later
call in the process; importing the module builds none.  Each subcommand
takes the common options from one parent parser.  A command's function is
looked up by its name when `run` dispatches, not bound into the parser.
Spaces, and the regular spread of each, are cached for the process too.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

from . import __version__, algebra, counting, mub, pauli, spread
from .errors import PolarMubError, ScaleExceeded
from .polar import PolarSpace, symplectic_group_order
from .spread import PartialSpread


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


@functools.cache
def get_space(d: int, n: int) -> PolarSpace:
    return PolarSpace(d, n)


@functools.cache
def _regular_spread(space: PolarSpace) -> PartialSpread:
    return spread.construct_symplectic_spread(space)


# --------------------------------------------------------------------------
# Spread serialization: the on-disk formats.
# --------------------------------------------------------------------------


def spread_payload(ps: PartialSpread) -> dict:
    return {
        "d": ps.space.d,
        "n": ps.space.n,
        "generators": [
            [list(row) for row in ps.space.generator(m).basis] for m in ps.members
        ],
    }


def serialize_spread(ps: PartialSpread, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(spread_payload(ps), sort_keys=True, indent=2) + "\n").encode()
    if fmt == "text":
        lines = [f"d={ps.space.d} n={ps.space.n}"]
        for m in ps.members:
            basis = ps.space.generator(m).basis
            lines.append("|".join(",".join(str(x) for x in row) for row in basis))
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}")


def _json_int(x) -> int:
    # int() would silently round a float and read a bool as 0 or 1.
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def deserialize_spread(data: bytes, fmt: str = "json") -> PartialSpread:
    try:
        text = data.decode()
        if fmt == "json":
            obj = json.loads(text)
            d, n = _json_int(obj["d"]), _json_int(obj["n"])
            bases = [
                tuple(tuple(_json_int(x) for x in row) for row in gen)
                for gen in obj["generators"]
            ]
        elif fmt == "text":
            lines = [ln for ln in text.splitlines() if ln.strip()]
            head = dict(part.split("=") for part in lines[0].split())
            d, n = int(head["d"]), int(head["n"])
            bases = [
                tuple(tuple(int(x) for x in row.split(",")) for row in ln.split("|"))
                for ln in lines[1:]
            ]
        else:
            raise UsageError(f"unknown format {fmt!r}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise UsageError(f"not a {fmt} spread file with d, n and generators: {exc!r}") from None
    space = get_space(d, n)
    if any(not 0 <= x < d for b in bases for row in b for x in row):
        raise UsageError(f"generator entries must be residues in [0, {d})")
    members = []
    for b in bases:
        canonical = algebra.rref(b, space.field)
        try:
            members.append(space.generator_by_basis(canonical).gen_index)
        except ValueError:
            raise UsageError(
                f"rows {b} do not span a generator of W_{2*space.n-1}({space.d})"
            ) from None
    return spread.partial_spread(space, members)


# --------------------------------------------------------------------------
# Command implementations.  Each returns (payload, ok).
# --------------------------------------------------------------------------


def _read_spread(path: str, args) -> PartialSpread:
    with open(path, "rb") as fh:
        ps = deserialize_spread(fh.read(), args.format)
    if (ps.space.d, ps.space.n) != (args.d, args.n):
        raise UsageError(
            f"{path} holds a spread with d={ps.space.d} n={ps.space.n}, "
            f"not d={args.d} n={args.n}"
        )
    return ps


def _construct_spread(
    space, method, k=0, u_index=None, l_index=None, m_index=None, chi_index=None
) -> tuple[PartialSpread, dict]:
    for flag, value in (("u", u_index), ("l", l_index), ("m", m_index), ("chi", chi_index)):
        if value is not None and not 0 <= value < space.num_generators:
            raise UsageError(
                f"--{flag}-index must lie in [0, {space.num_generators}), got {value}"
            )
    s = _regular_spread(space)
    if method == "classical":
        return s, {}
    if method == "tu":
        u = u_index
        if u is None:
            u = next(
                g.gen_index for g in space.generators if g.gen_index not in s.members
            )
        final, cert = spread.complete_TU(spread.construct_TU(s, u))
        return final, {"u_index": u}
    if method == "sr":
        l_idx = l_index if l_index is not None else s.members[0]
        m_idx = m_index if m_index is not None else s.members[1]
        sr = spread.construct_SR(s, l_idx, m_idx, k)
        return sr, {"l_index": l_idx, "m_index": m_idx, "k": k}
    if method == "uset":
        u = spread.construct_U_set(s, chi_index)
        final, _ = spread.unextendible_from_Uset(s, u)
        carrier = space.generator(u.carrier)
        return final, {
            "carrier": u.carrier,
            "uset_members": list(u.members.members),
            "carrier_meets": len(spread.members_meeting(s, carrier)),
        }
    raise UsageError(f"unknown construct method {method!r}")


def cmd_construct(args) -> tuple[dict, bool]:
    space = get_space(args.d, args.n)
    ps, extra = _construct_spread(
        space,
        args.method,
        k=args.k,
        u_index=args.u_index,
        l_index=args.l_index,
        m_index=args.m_index,
        chi_index=args.chi_index,
    )
    cert = spread.is_complete(ps)
    payload = {
        "method": args.method,
        "members": list(ps.members),
        "size": ps.size,
        "is_spread": ps.is_spread,
        "spread": spread_payload(ps),
        **dataclasses.asdict(cert),
        **extra,
    }
    return payload, cert.complete


def cmd_verify(args) -> tuple[dict, bool]:
    space = get_space(args.d, args.n)
    if args.check == "complete":
        if args.infile:
            ps = _read_spread(args.infile, args)
        else:
            ps = _regular_spread(space)
        cert = spread.is_complete(ps)
        return {
            "check": "complete",
            "members": list(ps.members),
            "size": ps.size,
            **dataclasses.asdict(cert),
        }, cert.complete
    if args.check == "regularity":
        s = _regular_spread(space)
        ok = spread.check_regularity(s)
        return {"check": "regularity", "size": s.size, "regular": ok}, ok
    if args.check == "class-roundtrip":
        failures = 0
        for g in space.generators:
            c = pauli.class_from_generator(g, space)
            if pauli.generator_from_class(c, space).gen_index != g.gen_index:
                failures += 1
        return {
            "check": "class-roundtrip",
            "generators": space.num_generators,
            "failures": failures,
        }, failures == 0
    raise UsageError(f"unknown verify check {args.check!r}")


def cmd_search(args) -> tuple[dict, bool]:
    space = get_space(args.d, args.n)
    if args.mode == "exhaustive":
        if args.size is not None:
            raise UsageError("--size applies only to --mode first-of-size")
        found = spread.search_maximal(space, "exhaustive")
        sizes: dict[int, int] = {}
        for p in found:
            sizes[p.size] = sizes.get(p.size, 0) + 1
        return {
            "mode": "exhaustive",
            "complete_partial_spreads": len(found),
            "count_by_size": {str(k): v for k, v in sorted(sizes.items())},
        }, True
    if args.mode == "first-of-size":
        if args.size is None:
            raise UsageError("--size is required for first-of-size")
        if args.size < 1:
            raise UsageError(f"--size must be at least 1, got {args.size}")
        found = spread.search_maximal(space, "first_of_size", size=args.size)
        payload = {
            "mode": "first-of-size",
            "size": args.size,
            "found": bool(found),
            "members": list(found[0].members) if found else None,
        }
        return payload, bool(found)
    raise UsageError(f"unknown search mode {args.mode!r}")


def cmd_conjecture(args) -> tuple[dict, bool]:
    report = counting.conjecture_counts(args.d, args.n)
    payload = dataclasses.asdict(report)
    ok = True
    if args.brute_force:
        space = get_space(args.d, args.n)
        s = _regular_spread(space)
        summary = counting.brute_force_conjecture(space, s)
        payload["brute_force"] = summary.as_dict()
        all_one = summary.exactly_one == summary.subsets_total
        consistent = all_one == (report.verdict == "Equality")
        ok = consistent and (not all_one or summary.completions_complete)
    return payload, ok


def cmd_classify(args) -> tuple[dict, bool]:
    space = get_space(args.d, args.n)
    found = spread.search_maximal(space, "exhaustive")  # refuses beyond the census spaces
    triples = [p for p in found if not p.is_spread]
    orbits = spread.classify_iso(space, triples)
    payload = {
        "complete_non_spreads": len(triples),
        "sizes": sorted({p.size for p in triples}),
        "orbits": len(orbits),
        "orbit_representatives": [list(p.members) for p in orbits],
        "group_order": symplectic_group_order(space),
    }
    return payload, True


def cmd_mub(args) -> tuple[dict, bool]:
    # The space refuses a bad d or n at once; refuse d^N above the dense
    # limit before its catalog is built.
    space = get_space(args.d, args.n)
    if space.d**space.n > pauli.MAX_DENSE_DIM:
        raise ScaleExceeded(f"dense dimension {space.d**space.n} exceeds {pauli.MAX_DENSE_DIM}")
    if args.from_file:
        ps = _read_spread(args.from_file, args)
    else:
        ps, _ = _construct_spread(space, args.from_spread or "classical", k=args.k)
    cert = mub.certify_weak_umub(ps, tolerance=args.tolerance)
    payload = {
        **dataclasses.asdict(cert),
        "classes": list(cert.classes),
        "target_overlap": 1.0 / (space.d**space.n),
    }
    return payload, cert.valid


# --------------------------------------------------------------------------
# Wiring.
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--d", type=int, required=True, help="prime order")
    common.add_argument("--n", type=int, required=True, help="rank N")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tolerance", type=_finite_float, default=1e-9)

    parser = _Parser(prog="polarmub")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a partial spread", parents=[common])
    p.add_argument(
        "--method", choices=("classical", "tu", "sr", "uset"), default="classical"
    )
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--u-index", type=int, dest="u_index")
    p.add_argument("--l-index", type=int, dest="l_index")
    p.add_argument("--m-index", type=int, dest="m_index")
    p.add_argument("--chi-index", type=int, dest="chi_index")

    p = sub.add_parser("verify", help="verify a spread property", parents=[common])
    p.add_argument(
        "--check", choices=("complete", "regularity", "class-roundtrip"), required=True
    )
    p.add_argument("--in", dest="infile")

    p = sub.add_parser("search", help="search for complete partial spreads", parents=[common])
    p.add_argument("--mode", choices=("exhaustive", "first-of-size"), required=True)
    p.add_argument("--size", type=int)

    p = sub.add_parser("conjecture", help="counting verdict for (d, N)", parents=[common])
    p.add_argument("--brute-force", action="store_true", dest="brute_force")

    sub.add_parser("classify", help="orbits of complete partial spreads", parents=[common])

    p = sub.add_parser("mub", help="weakly-unextendible MUB certificate", parents=[common])
    p.add_argument("--from-spread", choices=("classical", "tu", "sr", "uset"))
    p.add_argument("--from-file", dest="from_file")
    p.add_argument("--k", type=int, default=0)

    return parser


def _render_text(envelope: dict) -> str:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        else:
            lines.append(f"{prefix[:-1]} = {value}")

    walk("", envelope)
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    start = time.monotonic()
    config = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    try:
        # Looked up on each call, not bound into the parser that calls share.
        command = {
            "construct": cmd_construct,
            "verify": cmd_verify,
            "search": cmd_search,
            "conjecture": cmd_conjecture,
            "classify": cmd_classify,
            "mub": cmd_mub,
        }[args.command]
        payload, ok = command(args)
        envelope = {
            "version": __version__,
            "command": args.command,
            "config": config,
            "result": payload,
        }
        if args.format == "json":
            # allow_nan=False: a NaN or infinity is not JSON; refuse it.
            rendered = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"
        else:
            rendered = _render_text(envelope)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PolarMubError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return 0 if ok else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

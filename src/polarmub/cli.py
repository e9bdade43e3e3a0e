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
argparse refuses a --method, --check or --mode outside its choices, so each
command's last branch serves the one value left.  Only mub reads
--tolerance; every report records it, and every other command refuses a
value other than the default.  A spread file's format is read from its
content, so --format names only the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import time

from . import __version__, counting, mub, pauli, spread
from .errors import GeneratorInSpread, PolarMubError, ScaleExceeded
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


def _text_int(token: str) -> int:
    # int() would also read "0_0", "+0", " 0" and non-ASCII digits.
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"expected an integer, got {token!r}")
    return int(token)


def _unique_keys(pairs: list) -> dict:
    # dict() and json.loads keep the last copy of a repeated key.
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"a key is given twice in {[k for k, _ in pairs]}")
    return obj


def _parse_spread(data: bytes) -> tuple[int, int, list]:
    """The d, n and generator rows a spread file names, with no space built.
    A file whose first non-blank character is { or [ is JSON, any other is
    text."""
    fmt = "json" if data.lstrip()[:1] in (b"{", b"[") else "text"
    try:
        text = data.decode()
        if fmt == "json":
            obj = json.loads(text, object_pairs_hook=_unique_keys)
            d, n = _json_int(obj["d"]), _json_int(obj["n"])
            bases = [
                tuple(tuple(_json_int(x) for x in row) for row in gen)
                for gen in obj["generators"]
            ]
        else:
            lines = [ln for ln in text.splitlines() if ln.strip()]
            head = _unique_keys([part.split("=") for part in lines[0].split()])
            d, n = _text_int(head["d"]), _text_int(head["n"])
            bases = [
                tuple(tuple(_text_int(x) for x in row.split(",")) for row in ln.split("|"))
                for ln in lines[1:]
            ]
    except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        raise UsageError(f"not a {fmt} spread file with d, n and generators: {exc!r}") from None
    return d, n, bases


def _spread_of(d: int, n: int, bases: list) -> PartialSpread:
    space = get_space(d, n)
    if any(not 0 <= x < d for b in bases for row in b for x in row):
        raise UsageError(f"generator entries must be residues in [0, {d})")
    members = []
    for b in bases:
        try:
            members.append(space.generator_by_basis(b).gen_index)
        except ValueError:
            raise UsageError(
                f"rows {b} do not span a generator of W_{2*space.n-1}({space.d})"
            ) from None
    return spread.partial_spread(space, members)


def deserialize_spread(data: bytes) -> PartialSpread:
    """The spread that JSON or text bytes hold, its format read from them.
    Kept for the README spread files: the CLI compares a file's header with
    --d and --n between parsing and building, in `_read_spread`."""
    return _spread_of(*_parse_spread(data))


# --------------------------------------------------------------------------
# Command implementations.  Each returns (payload, ok).
# --------------------------------------------------------------------------


def _read_spread(path: str, args) -> PartialSpread:
    """The spread a file holds.  Its format is read from its content, not from
    --format, which names the report."""
    with open(path, "rb") as fh:
        data = fh.read()
    d, n, bases = _parse_spread(data)
    # The header is compared first, so that a file of another space builds
    # neither that space nor its catalog.
    if (d, n) != (args.d, args.n):
        raise UsageError(f"{path} holds a spread with d={d} n={n}, not d={args.d} n={args.n}")
    return _spread_of(d, n, bases)


# The flags each construction method reads.  Each refuses any other flag
# given: an index flag set to any value, 0 included, or a nonzero --k.
METHOD_FLAGS = {
    "classical": (), "tu": ("u_index",), "sr": ("l_index", "m_index", "k"), "uset": ("chi_index",)
}


def _construct_spread(space, method, args) -> tuple[PartialSpread, dict]:
    values = vars(args)  # mub's arguments hold --k but no index flags
    given = {
        name: values[name]
        for name in ("u_index", "l_index", "m_index", "chi_index", "k")
        if values.get(name) is not None and (name != "k" or values[name] != 0)
    }
    for name, value in given.items():
        flag = "--" + name.replace("_", "-")
        if name not in METHOD_FLAGS[method]:
            raise UsageError(f"method {method} does not read {flag}")
        if name != "k" and not 0 <= value < space.num_generators:
            raise UsageError(f"{flag} must lie in [0, {space.num_generators}), got {value}")
    s = _regular_spread(space)
    if method == "classical":
        return s, {}
    if method == "tu":
        u = given.get("u_index")
        if u is None:
            u = next((g.gen_index for g in space.generators if g.gen_index not in s.members), None)
            if u is None:
                raise GeneratorInSpread(
                    f"every generator of W_{space.dim - 1}({space.d}) lies in its regular spread"
                )
        final, cert = spread.complete_TU(spread.construct_TU(s, u))
        return final, {"u_index": u}
    if method == "sr":
        picks = {"l_index": s.members[0], "m_index": s.members[1], "k": 0} | given
        return spread.construct_SR(s, picks["l_index"], picks["m_index"], picks["k"]), picks
    u = spread.construct_U_set(s, given.get("chi_index"))
    final, _ = spread.unextendible_from_Uset(s, u)
    return final, {
        "carrier": u.carrier,
        "uset_members": list(u.members.members),
        "carrier_meets": len(spread.members_meeting(s, space.generator(u.carrier))),
    }


def cmd_construct(args) -> tuple[dict, bool]:
    space = get_space(args.d, args.n)
    ps, extra = _construct_spread(space, args.method, args)
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
    if args.infile is not None and args.check != "complete":
        raise UsageError("--in applies only to --check complete")
    space = get_space(args.d, args.n)
    if args.check == "complete":
        if args.infile is not None:
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
    if args.from_file is not None:
        if args.from_spread is not None or args.k:
            raise UsageError("--from-file takes neither --from-spread nor --k")
        ps = _read_spread(args.from_file, args)
    else:
        ps, _ = _construct_spread(space, args.from_spread or "classical", args)
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

TOLERANCE = 1e-9


@functools.cache
def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--d", type=int, required=True, help="prime order")
    common.add_argument("--n", type=int, required=True, help="rank N")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tolerance", type=_finite_float, default=TOLERANCE)

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
        # parse_args raises UsageError, or SystemExit for --help and the like.
        args = parser.parse_args(argv)
        start = time.monotonic()
        config = {k: v for k, v in sorted(vars(args).items()) if v is not None}
        # Every report records the tolerance; only mub reads it.
        if args.command != "mub" and args.tolerance != TOLERANCE:
            raise UsageError(f"{args.command} does not read --tolerance")
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

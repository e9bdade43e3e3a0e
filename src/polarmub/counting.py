"""Exact counting for the subset-coverage inequality across (d, N).

The inequality compares binom(d^N + 1, d^{N-1} + 1) + (d^N + 1) against the
generator census prod_{i=1..N} (d^i + 1).  Everything is exact integer
arithmetic.  For grid corners where the binomial itself is astronomically
large, the verdict is still exact: the prefix products binom(m + i, i) are
integers and strictly increasing, so the comparison is decided the moment a
prefix exceeds the right-hand side, without materialising the full value.

`brute_force_conjecture` checks the claim on a spread S from meet sets: a
generator g outside S is covered by a subset T of S exactly when M(g), the
members g meets, lie inside T.  It builds only the supersets of meet sets,
and refuses a space with more of them than `polar.GENERATOR_LIMIT`.

Trades are certified from meet sets too.  Lemma: let a k-subset T of S,
k = d^{N-1} + 1, cover exactly one generator g outside S.  S covers every
point, so a generator disjoint from S ∖ T lies in T's points: it is a
member of T, or g.  So the trade (S ∖ T) + {g} is complete exactly when g
meets every member of T: when M(g) = T, that is |M(g)| = k.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from math import comb

from . import polar
from .algebra import FieldSpec, _integer
from .errors import DimensionMismatch, ScaleExceeded
from .polar import PolarSpace, generator_count
from .spread import PartialSpread

# The largest rank `conjecture_counts` reports on.  At rank 64 every
# supported d reports in well under a millisecond, and the census of d = 13
# has 2318 digits, inside Python's 4300-digit limit for printing an int.
CONJECTURE_RANK_LIMIT = 64


@dataclass(frozen=True)
class ConjectureReport:
    d: int
    n: int
    subset_size: int
    spread_size: int
    rhs: int
    binom_term: int | None
    lhs: int | None
    verdict: str  # "Equality" | "StrictlyLess" | "Violated"


@dataclass(frozen=True)
class BruteForceSummary:
    subsets_total: int
    exactly_one: int
    at_least_one: int
    first_failure: tuple[int, ...] | None
    distinct_covered: bool
    completions_complete: bool
    completion_size: int | None
    expected_completion_size: int

    def as_dict(self) -> dict:
        first = self.first_failure
        return {**asdict(self), "first_failure": None if first is None else list(first)}


# Binomials whose symmetric index is at most this many steps are always
# materialised exactly; longer walks are compared against the bound only.
MATERIALIZE_STEPS = 200


def _bounded_binom(n: int, k: int, bound: int) -> int | None:
    """comb(n, k) if it does not exceed bound, else None.

    Walks the integer prefix values comb(n - k + i, i), which increase with
    i, so the first prefix above the bound certifies comb(n, k) > bound
    without materialising a number with tens of millions of digits.  Short
    walks skip the bound and return the exact value.
    """
    k = min(k, n - k)
    if k <= MATERIALIZE_STEPS:
        return comb(n, k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > bound:
            return None
    return value


def conjecture_counts(d: int, n: int) -> ConjectureReport:
    """Exact verdict of lhs = binom + |S| versus the generator census."""
    d, n = FieldSpec(d).d, _integer(n, "n")  # d in SUPPORTED_PRIMES, both ints
    if n < 1:
        raise ValueError("rank n must be at least 1")
    if n > CONJECTURE_RANK_LIMIT:
        raise ScaleExceeded(f"rank n above {CONJECTURE_RANK_LIMIT} is refused, got {n}")
    spread_size = d**n + 1
    subset_size = d ** (n - 1) + 1
    rhs = generator_count(d, n)
    binom_term = _bounded_binom(spread_size, subset_size, rhs)
    if binom_term is None:
        return ConjectureReport(
            d, n, subset_size, spread_size, rhs, None, None, "Violated"
        )
    lhs = binom_term + spread_size
    if lhs == rhs:
        verdict = "Equality"
    elif lhs < rhs:
        verdict = "StrictlyLess"
    else:
        verdict = "Violated"
    return ConjectureReport(
        d, n, subset_size, spread_size, rhs, binom_term, lhs, verdict
    )


def asymptotic_gate(d: int, m: int) -> bool:
    """Exact exponent comparison d^{M-1} >= M(M+3)/2, monotone in M.  Kept
    for the README inequality result: where it holds, the inequality is
    Violated."""
    return 2 * d ** (m - 1) >= m * (m + 3)


def brute_force_conjecture(space: PolarSpace, s: PartialSpread) -> BruteForceSummary:
    """Tally the (d^{N-1} + 1)-subsets T of the spread S by the generators
    outside S that they cover, from meet sets: T covers g exactly when M(g),
    the positions of the members g meets, lies inside T.  Only the supersets
    of each M(g) are built; more of them than `polar.GENERATOR_LIMIT` raises
    ScaleExceeded before any is.  Also checks that distinct exactly-one
    subsets cover distinct generators, and whether each trade of T for its
    g is complete: by the Lemma above, exactly when |M(g)| = k.  Each trade
    has |S| - k + 1 = d^N - d^{N-1} + 1 members.
    """
    if (s.space.d, s.space.n) != (space.d, space.n):
        raise DimensionMismatch(f"the spread lies in {s.space!r}, not in {space!r}")
    if not s.is_spread:
        raise ValueError("brute force needs a full spread")
    k = space.d ** (space.n - 1) + 1
    expected = space.d**space.n - space.d ** (space.n - 1) + 1
    member = s.member_positions()
    meet_sets: dict[int, list[int]] = {}
    for g, row in enumerate(space.generator_points):
        meets = set(member[row].tolist())
        if 1 < len(meets) <= k:
            meet_sets[g] = sorted(meets)
    supersets = sum(comb(s.size - len(m), k - len(m)) for m in meet_sets.values())
    if supersets > polar.GENERATOR_LIMIT:
        raise ScaleExceeded(
            f"W_{2*space.n-1}({space.d}) meet sets expand to {supersets} subsets, "
            f"above {polar.GENERATOR_LIMIT}"
        )
    covers: dict[tuple[int, ...], list[int]] = {}
    for g, m in meet_sets.items():
        rest = sorted(set(range(s.size)).difference(m))
        for extra in itertools.combinations(rest, k - len(m)):
            covers.setdefault(tuple(sorted(m + list(extra))), []).append(g)
    exact = sorted(t for t, gens in covers.items() if len(gens) == 1)
    # The lex-least subset that does not cover exactly one generator.
    lex = itertools.combinations(range(s.size), k)
    failure = next((t for t, u in zip(lex, exact + [None]) if t != u), None)
    traded_gens = [covers[t][0] for t in exact]
    return BruteForceSummary(
        subsets_total=comb(s.size, k),
        exactly_one=len(exact),
        at_least_one=len(covers),
        first_failure=None if failure is None else tuple(s.members[i] for i in failure),
        distinct_covered=len(set(traded_gens)) == len(traded_gens),
        completions_complete=all(len(meet_sets[g]) == k for g in traded_gens),
        completion_size=expected if exact else None,
        expected_completion_size=expected,
    )

"""Exact counting for the subset-coverage inequality across (d, N).

The inequality compares binom(d^N + 1, d^{N-1} + 1) + (d^N + 1) against the
generator census prod_{i=1..N} (d^i + 1).  Everything is exact integer
arithmetic.  For grid corners where the binomial itself is astronomically
large, the verdict is still exact: the prefix products binom(m + i, i) are
integers and strictly increasing, so the comparison is decided the moment a
prefix exceeds the right-hand side, without materialising the full value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from . import spread as spread_mod
from .algebra import FieldSpec
from .errors import ScaleExceeded
from .polar import PolarSpace, generator_count
from .spread import PartialSpread

BRUTE_FORCE_SPACES = {(2, 2), (2, 3), (3, 2)}

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
        return {
            "subsets_total": self.subsets_total,
            "exactly_one": self.exactly_one,
            "at_least_one": self.at_least_one,
            "first_failure": list(self.first_failure) if self.first_failure else None,
            "distinct_covered": self.distinct_covered,
            "completions_complete": self.completions_complete,
            "completion_size": self.completion_size,
            "expected_completion_size": self.expected_completion_size,
        }


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
    FieldSpec(d)  # refuses d outside SUPPORTED_PRIMES
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
    """Sweep every subset of the spread of size d^{N-1} + 1.

    Tallies how many subsets cover exactly one further generator versus at
    least one (the strict and relaxed tiers of the claim), verifies that
    distinct subsets give distinct covered generators, and that trading the
    subset for its covered generator leaves a complete partial spread of
    size d^N - d^{N-1} + 1.
    """
    if (space.d, space.n) not in BRUTE_FORCE_SPACES:
        raise ScaleExceeded("full sweeps supported for W_3(2), W_5(2), W_3(3)")
    if not s.is_spread:
        raise ValueError("brute force needs a full spread")
    subset_size = space.d ** (space.n - 1) + 1
    expected = space.d**space.n - space.d ** (space.n - 1) + 1
    exactly_one = 0
    at_least_one = 0
    first_failure = None
    covered_seen: dict[int, tuple[int, ...]] = {}
    distinct = True
    completions_ok = True
    completion_size = None
    total = 0
    for subset in itertools.combinations(s.members, subset_size):
        total += 1
        sub = spread_mod.partial_spread(space, subset)
        covered = spread_mod.covered_generators(sub)
        if len(covered) >= 1:
            at_least_one += 1
        if len(covered) == 1:
            exactly_one += 1
            g = covered[0]
            if g.gen_index in covered_seen and covered_seen[g.gen_index] != subset:
                distinct = False
            covered_seen[g.gen_index] = subset
            traded = spread_mod.partial_spread(
                space,
                [m for m in s.members if m not in subset] + [g.gen_index],
            )
            if traded.size != expected or not spread_mod.is_complete(traded).complete:
                completions_ok = False
            completion_size = traded.size
        elif first_failure is None:
            first_failure = subset
    return BruteForceSummary(
        subsets_total=total,
        exactly_one=exactly_one,
        at_least_one=at_least_one,
        first_failure=first_failure,
        distinct_covered=distinct,
        completions_complete=completions_ok,
        completion_size=completion_size,
        expected_completion_size=expected,
    )

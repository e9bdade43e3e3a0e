"""Tests for the exact counting arguments and their brute-force confirmation."""

import itertools
from math import comb

import numpy as np
import pytest

from polarmub import counting, polar, spread
from polarmub.errors import DimensionMismatch, ScaleExceeded
from polarmub.polar import PolarSpace

import oracles


def test_equality_at_2_2():
    r = counting.conjecture_counts(2, 2)
    assert (r.binom_term, r.lhs, r.rhs) == (10, 15, 15)
    assert r.verdict == "Equality"


def test_equality_at_2_3():
    r = counting.conjecture_counts(2, 3)
    assert (r.binom_term, r.lhs, r.rhs) == (126, 135, 135)
    assert r.verdict == "Equality"


def test_violation_at_3_2():
    r = counting.conjecture_counts(3, 2)
    assert (r.binom_term, r.lhs, r.rhs) == (210, 220, 40)
    assert r.verdict == "Violated"


def test_grid_equality_exactly_at_the_two_known_cases():
    for d in (2, 3, 5, 7, 11, 13):
        for n in range(2, 9):
            r = counting.conjecture_counts(d, n)
            if (d, n) in ((2, 2), (2, 3)):
                assert r.verdict == "Equality"
            else:
                assert r.verdict == "Violated"


def test_bounded_binom_agrees_with_comb():
    for n in range(1, 40):
        for k in range(0, n + 1):
            assert counting._bounded_binom(n, k, 0) == comb(n, k)
    # long walks take the bounded path: certified abort below, exact above
    n, k = 1000, 500
    exact = comb(n, k)
    assert counting._bounded_binom(n, k, exact) == exact
    assert counting._bounded_binom(n, k, exact - 1) is None


def test_binomial_identities():
    for n in range(0, 12):
        assert sum(comb(n, k) for k in range(n + 1)) == 2**n
        for k in range(n + 1):
            assert comb(n, k) == comb(n, n - k)


def test_asymptotic_gate_examples():
    assert counting.asymptotic_gate(5, 2)  # 5 >= 5
    assert counting.asymptotic_gate(2, 6)  # 32 >= 27
    assert not counting.asymptotic_gate(2, 5)  # 16 < 20


def test_asymptotic_gate_monotone():
    for d in (2, 3, 5, 7, 11, 13):
        fired = False
        for m in range(2, 30):
            now = counting.asymptotic_gate(d, m)
            if fired:
                assert now
            fired = fired or now
        assert fired


def test_conjecture_counts_refuses_outside_its_domain():
    for d, n in ((4, 2), (1, 2), (2, 0), (13, -1)):
        with pytest.raises(ValueError):
            counting.conjecture_counts(d, n)
    limit = counting.CONJECTURE_RANK_LIMIT
    for d in (2, 3, 5, 7, 11, 13):
        str(counting.conjecture_counts(d, limit).rhs)  # printable
        with pytest.raises(ScaleExceeded):
            counting.conjecture_counts(d, limit + 1)


@pytest.mark.parametrize(
    "d,n", [(2, True), (True, 2), (2.0, 2), (2, 2.0)],
    ids=["bool-n", "bool-d", "float-d", "float-n"],
)
def test_conjecture_counts_refuses_a_d_or_n_that_is_no_integer(d, n):
    with pytest.raises(TypeError, match="must be an integer"):
        counting.conjecture_counts(d, n)


@pytest.mark.parametrize("d,n", [(13, 64), (2, 40), (3, 2)])
def test_conjecture_counts_reads_numpy_integers_as_ints(d, n):
    # Kept as numpy integers, these overflow int64: (13, 64) reported a
    # negative spread size, and (2, 40) did not return within 20 s.
    report = counting.conjecture_counts(np.int64(d), np.int64(n))
    assert report == counting.conjecture_counts(d, n)
    assert all(type(getattr(report, f)) is int for f in ("d", "n", "spread_size", "rhs"))


def test_asymptotic_gate_implies_violated():
    for d in (2, 3, 5, 7, 11, 13):
        for m in range(2, 9):
            if counting.asymptotic_gate(d, m):
                assert counting.conjecture_counts(d, m).verdict == "Violated"


def test_brute_force_w32():
    space = PolarSpace(2, 2)
    s = spread.construct_symplectic_spread(space)
    summary = counting.brute_force_conjecture(space, s)
    assert summary.subsets_total == 10
    assert summary.exactly_one == 10
    assert summary.at_least_one == 10
    assert summary.first_failure is None
    assert summary.distinct_covered
    assert summary.completions_complete
    assert summary.expected_completion_size == 3


def test_brute_force_w33_exhibits_failure():
    space = PolarSpace(3, 2)
    s = spread.construct_symplectic_spread(space)
    summary = counting.brute_force_conjecture(space, s)
    assert summary.subsets_total == 210
    assert summary.exactly_one < 210
    assert summary.first_failure is not None
    # consistency with the counting verdict: equality fails at (3, 2)
    assert counting.conjecture_counts(3, 2).verdict == "Violated"


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2)], ids=["W_3(2)", "W_5(2)", "W_3(3)"])
def test_brute_force_matches_sweep_oracle(d, n):
    space = PolarSpace(d, n)
    s = spread.construct_symplectic_spread(space)
    want = oracles.brute_force_conjecture(space, s).as_dict()
    assert counting.brute_force_conjecture(space, s).as_dict() == want


W72_SUMMARY = {
    "subsets_total": 24310,
    "exactly_one": 12240,
    "at_least_one": 22270,
    "first_failure": [0, 154, 284, 570, 637, 777, 853, 985, 1287],
    "distinct_covered": False,
    "completions_complete": False,
    "completion_size": 9,
    "expected_completion_size": 9,
}


def test_brute_force_w72_matches_the_sweep_literals(monkeypatch):
    # The sweep oracle gave these literals; it takes seconds at W_7(2).  The
    # meet sets there expand to exactly 35 530 subsets, so the count runs
    # with the limit lowered to that sum.
    space = PolarSpace(2, 4)
    s = spread.construct_symplectic_spread(space)
    monkeypatch.setattr(polar, "GENERATOR_LIMIT", 35_530)
    assert counting.brute_force_conjecture(space, s).as_dict() == W72_SUMMARY


# Taken from the count that certified every trade with `spread.is_complete`.
W53_SUMMARY = {
    "subsets_total": 13123110,
    "exactly_one": 1092,
    "at_least_one": 1092,
    "first_failure": [0, 45, 83, 118, 217, 249, 313, 351, 375, 386],
    "distinct_covered": True,
    "completions_complete": True,
    "completion_size": 19,
    "expected_completion_size": 19,
}


def test_brute_force_w53_is_pinned():
    space = PolarSpace(3, 3)
    s = spread.construct_symplectic_spread(space)
    assert counting.brute_force_conjecture(space, s).as_dict() == W53_SUMMARY


# Taken from the count that built each complement by a test on a list.
W313_SUMMARY = {
    "subsets_total": 111427207937609835960,
    "exactly_one": 0,
    "at_least_one": 1105,
    "first_failure": [0, 15, 28, 41, 54, 67, 80, 93, 106, 119, 132, 145, 158, 171],
    "distinct_covered": True,
    "completions_complete": True,
    "completion_size": None,
    "expected_completion_size": 157,
}


def test_brute_force_w313_is_pinned():
    space = PolarSpace(13, 2)
    s = spread.construct_symplectic_spread(space)
    assert counting.brute_force_conjecture(space, s).as_dict() == W313_SUMMARY


@pytest.mark.parametrize(
    "d, n", [(2, 2), (2, 3), (2, 4), (3, 3)], ids=["W_3(2)", "W_5(2)", "W_7(2)", "W_5(3)"]
)
def test_trade_is_complete_exactly_when_its_meet_set_is_the_subset(d, n):
    # Each exactly-one trade, certified by a catalog scan, against the
    # Lemma: (S ∖ T) + {g} is complete exactly when M(g) = T.
    space = PolarSpace(d, n)
    s = spread.construct_symplectic_spread(space)
    summary = counting.brute_force_conjecture(space, s)
    trades = oracles.exactly_one_trades(space, s)
    verdicts = []
    for t, g, meets in trades:
        traded = spread.partial_spread(space, [m for m in s.members if m not in t] + [g])
        assert traded.size == summary.expected_completion_size
        complete = spread.is_complete(traded).complete
        assert complete == (meets == t)
        verdicts.append(complete)
    assert len(trades) == summary.exactly_one > 0
    assert all(verdicts) == summary.completions_complete
    assert summary.completion_size == summary.expected_completion_size


def test_brute_force_builds_and_scans_no_trade(monkeypatch):
    space = PolarSpace(2, 3)
    s = spread.construct_symplectic_spread(space)

    def refuse(*args):
        raise AssertionError("a trade was built or scanned")

    monkeypatch.setattr(spread, "is_complete", refuse)
    monkeypatch.setattr(spread, "partial_spread", refuse)
    summary = counting.brute_force_conjecture(space, s)
    assert (summary.exactly_one, summary.completions_complete) == (126, True)


def test_brute_force_scale_guard(monkeypatch):
    space = PolarSpace(2, 4)
    s = spread.construct_symplectic_spread(space)
    monkeypatch.setattr(polar, "GENERATOR_LIMIT", 35_529)
    with pytest.raises(ScaleExceeded, match="expand to 35530 subsets"):
        counting.brute_force_conjecture(space, s)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_brute_force_rank_two_meet_sets_are_partner_pairs(d):
    # In rank 2 each line outside the spread meets d + 1 = k members, and
    # at odd d it shares that meet set with its partner alone, so no subset
    # covers exactly one line and d(d^2 + 1)/2 subsets cover two.
    space = PolarSpace(d, 2)
    s = spread.construct_symplectic_spread(space)
    summary = counting.brute_force_conjecture(space, s)
    assert summary.exactly_one == 0
    assert summary.at_least_one == d * (d * d + 1) // 2


def test_brute_force_refuses_a_spread_of_another_space():
    s = spread.construct_symplectic_spread(PolarSpace(2, 2))
    with pytest.raises(DimensionMismatch, match=r"PolarSpace\(d=2, n=2\).*PolarSpace\(d=2, n=3\)"):
        counting.brute_force_conjecture(PolarSpace(2, 3), s)


def test_brute_force_requires_spread():
    space = PolarSpace(2, 2)
    s = spread.construct_symplectic_spread(space)
    partial = spread.partial_spread(space, s.members[:3])
    with pytest.raises(ValueError):
        counting.brute_force_conjecture(space, partial)

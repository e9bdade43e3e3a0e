"""Unit tests for exact field and subspace arithmetic."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarmub import algebra, polar, spread
from polarmub.algebra import FieldSpec


def span_set(basis, spec):
    """Brute-force row span, as a set of vectors.  Independent oracle."""
    if not basis:
        return {()}
    width = len(basis[0])
    vectors = set()
    for coeffs in itertools.product(range(spec.d), repeat=len(basis)):
        v = tuple(
            sum(c * row[i] for c, row in zip(coeffs, basis)) % spec.d
            for i in range(width)
        )
        vectors.add(v)
    return vectors


def random_matrix(rng, rows, cols, d):
    return tuple(
        tuple(rng.randrange(d) for _ in range(cols)) for _ in range(rows)
    )


@st.composite
def matrices(draw, count):
    """`count` matrices over one F_d with a shared width; rows may repeat."""
    d = draw(st.sampled_from([2, 3, 5]))
    width = draw(st.integers(1, 5))
    row = st.tuples(*[st.integers(0, d - 1)] * width)
    mats = [tuple(draw(st.lists(row, max_size=width + 1))) for _ in range(count)]
    return FieldSpec(d), mats


# -- rref


def test_rref_examples():
    f2 = FieldSpec(2)
    assert algebra.rref(((0, 1), (1, 0)), f2) == ((1, 0), (0, 1))
    f5 = FieldSpec(5)
    assert algebra.rref(((2, 4),), f5) == ((1, 2),)
    f3 = FieldSpec(3)
    assert algebra.rref(((1, 1, 0), (1, 1, 0)), f3) == ((1, 1, 0),)


@settings(derandomize=True, database=None, max_examples=200)
@given(matrices(1))
def test_rref_idempotent(case):
    spec, (m,) = case
    r = algebra.rref(m, spec)
    assert algebra.rref(r, spec) == r


@settings(derandomize=True, database=None, max_examples=200)
@given(matrices(1), st.data())
def test_rref_is_invariant_under_invertible_row_combinations(case, data):
    spec, (m,) = case
    k = len(m)
    row = st.tuples(*[st.integers(0, spec.d - 1)] * k)
    invertible = st.lists(row, min_size=k, max_size=k).filter(
        lambda r: len(algebra.rref(tuple(r), spec)) == k
    )
    # Each row of the product r·m is one combination of m's rows.
    mixed = tuple(
        tuple(sum(c * x for c, x in zip(r, column)) % spec.d for column in zip(*m))
        for r in data.draw(invertible)
    )
    assert algebra.rref(mixed, spec) == algebra.rref(m, spec)


def test_rref_is_canonical_form():
    # Two bases span the same subspace iff their rrefs coincide.
    rng = random.Random(11)
    for d in (2, 3):
        spec = FieldSpec(d)
        by_span = {}
        for _ in range(150):
            m = random_matrix(rng, rng.randrange(1, 4), 4, d)
            key = frozenset(span_set(m, spec))
            r = algebra.rref(m, spec)
            if key in by_span:
                assert by_span[key] == r
            else:
                by_span[key] = r
        seen = list(by_span.items())
        for (k1, r1), (k2, r2) in itertools.combinations(seen, 2):
            if k1 != k2:
                assert r1 != r2


# -- the modulus of F_{d^N}, and the prime field


# The least monic irreducible of each degree, little-endian (index i holds
# the coefficient of t^i), for every (d, N) that `PolarSpace` accepts.
MODULUS_PINS = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),  # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),  # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),  # t^2 + 1
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (13, 1): (0, 1),
    (13, 2): (2, 0, 1),
}


def test_irreducible_poly_choices():
    accepted = {
        (d, n)
        for d in algebra.SUPPORTED_PRIMES
        for n in range(1, 9)
        if polar.point_count(d, n) <= polar.POINT_LIMIT
    }
    assert accepted == set(MODULUS_PINS)
    for (d, n), f in MODULUS_PINS.items():
        assert spread._field_modulus(d, n) == f, (d, n)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)


@pytest.mark.parametrize("d", [2.0, True, "2", None], ids=["float", "bool", "str", "none"])
def test_field_spec_refuses_a_d_that_is_no_integer(d):
    with pytest.raises(TypeError, match="d must be an integer"):
        FieldSpec(d)


def test_field_spec_reads_a_numpy_integer_as_an_int():
    spec = FieldSpec(np.int64(5))
    assert type(spec.d) is int
    assert spec == FieldSpec(5)

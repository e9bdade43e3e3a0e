"""Exact arithmetic over prime fields F_d.

Everything is plain integers and tuples: a vector is a tuple of residues in
[0, d), a matrix is a tuple of row vectors.  Subspaces are always kept in
reduced row echelon form (rref) with zero rows dropped, so two bases span
the same subspace iff they are equal as tuples.  All reductions are eager;
no value ever holds an unreduced residue.  Extension fields F_{d^N} appear
only inside the field reduction, as matrices over F_d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DimensionMismatch

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


# --------------------------------------------------------------------------
# Polynomials over F_d, as little-endian coefficient tuples (index i holds
# the coefficient of t^i).  Only what choosing the modulus of F_{d^N} needs.
# --------------------------------------------------------------------------


def poly_trim(p: Vector) -> Vector:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def poly_mod(p: Vector, m: Vector, d: int) -> Vector:
    """Remainder of p modulo the monic polynomial m."""
    out = list(p)
    deg_m = len(m) - 1
    for i in range(len(out) - 1, deg_m - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(deg_m):
                out[i - deg_m + j] = (out[i - deg_m + j] - c * m[j]) % d
    return poly_trim(tuple(out))


def poly_is_irreducible(p: Vector, d: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(p)/2."""
    p = poly_trim(p)
    deg = len(p) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for k in range(1, deg // 2 + 1):
        for tail in itertools.product(range(d), repeat=k):
            divisor = tuple(tail) + (1,)
            if not any(poly_mod(p, divisor, d)):
                return False
    return True


def find_irreducible(d: int, n: int) -> Vector:
    """Lexicographically least monic irreducible of degree n over F_d.

    Candidates are scanned in ascending order of the base-d encoding of the
    non-leading coefficients (constant term least significant), so the
    choice is deterministic across runs.
    """
    for value in range(d**n):
        coeffs = []
        v = value
        for _ in range(n):
            coeffs.append(v % d)
            v //= d
        cand = tuple(coeffs) + (1,)
        if poly_is_irreducible(cand, d):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{d}")


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_d."""

    d: int

    def __post_init__(self):
        if self.d not in SUPPORTED_PRIMES:
            raise ValueError(f"d must be a prime in {SUPPORTED_PRIMES}, got {self.d}")


# --------------------------------------------------------------------------
# Row reduction, products and inverses.
# --------------------------------------------------------------------------


def rref(m: Matrix, spec: FieldSpec) -> Matrix:
    """Canonical reduced row echelon form over F_d, zero rows dropped.

    Idempotent; the output is the unique canonical basis of the row space.
    """
    if not m:
        return ()
    d = spec.d
    width = len(m[0])
    if any(len(r) != width for r in m):
        raise DimensionMismatch("ragged matrix")
    rows = [[x % d for x in r] for r in m]
    nrows = len(rows)
    pivot = 0
    for col in range(width):
        src = None
        for r in range(pivot, nrows):
            if rows[r][col]:
                src = r
                break
        if src is None:
            continue
        rows[pivot], rows[src] = rows[src], rows[pivot]
        inv = pow(rows[pivot][col], -1, d)
        if inv != 1:
            rows[pivot] = [(x * inv) % d for x in rows[pivot]]
        for r in range(nrows):
            if r != pivot and rows[r][col]:
                c = rows[r][col]
                prow = rows[pivot]
                rows[r] = [(rows[r][i] - c * prow[i]) % d for i in range(width)]
        pivot += 1
        if pivot == nrows:
            break
    return tuple(tuple(r) for r in rows[:pivot])


def vec_mat(v: Vector, m: Matrix, spec: FieldSpec) -> Vector:
    d = spec.d
    width = len(m[0])
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % d for j in range(width))


def invert_matrix(m: Matrix, spec: FieldSpec) -> Matrix:
    """Inverse of a square nonsingular matrix via an augmented reduction."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("matrix is not square")
    aug = tuple(
        tuple(m[i]) + tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    )
    red = rref(aug, spec)
    # [m | I] has rank n, and m is invertible iff each pivot is diagonal.
    if any(row[i] != 1 for i, row in enumerate(red)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)


"""Exact arithmetic over prime fields F_d and their small extension fields.

Everything is plain integers and tuples: a vector is a tuple of residues in
[0, d), a matrix is a tuple of row vectors.  Subspaces are always kept in
reduced row echelon form (rref) with zero rows dropped, so two bases span
the same subspace iff they are equal as tuples.  All reductions are eager;
no value ever holds an unreduced residue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DimensionMismatch, NotInBaseField

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


# --------------------------------------------------------------------------
# Polynomials over F_d, as little-endian coefficient tuples (index i holds
# the coefficient of t^i).  Only what the extension-field plumbing needs.
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
    """Prime field F_d together with a degree-N extension F_{d^N}.

    ``ext_poly`` is the little-endian coefficient tuple of a monic degree-N
    irreducible polynomial over F_d; when omitted, the lexicographically
    least one is chosen.
    """

    d: int
    ext_degree: int = 1
    ext_poly: Vector = ()

    def __post_init__(self):
        if self.d not in SUPPORTED_PRIMES:
            raise ValueError(f"d must be a prime in {SUPPORTED_PRIMES}, got {self.d}")
        if self.ext_degree < 1:
            raise ValueError("ext_degree must be a positive integer")
        if not self.ext_poly:
            object.__setattr__(self, "ext_poly", find_irreducible(self.d, self.ext_degree))
        poly = tuple(self.ext_poly)
        object.__setattr__(self, "ext_poly", poly)
        if len(poly) != self.ext_degree + 1 or poly[-1] != 1:
            raise ValueError("ext_poly must be monic of degree ext_degree")
        if any(not 0 <= c < self.d for c in poly):
            raise ValueError("ext_poly coefficients must be residues mod d")
        if not poly_is_irreducible(poly, self.d):
            raise ValueError("ext_poly is reducible over F_d")


# --------------------------------------------------------------------------
# Row reduction and subspace arithmetic.
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


def _pivot_col(row: Vector) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    return -1


def reduce_vector(basis: Matrix, v: Vector, spec: FieldSpec) -> Vector:
    """Residual of v after elimination against an rref basis."""
    d = spec.d
    out = [x % d for x in v]
    for row in basis:
        p = _pivot_col(row)
        c = out[p]
        if c:
            out = [(out[i] - c * row[i]) % d for i in range(len(out))]
    return tuple(out)


def row_space_contains(basis: Matrix, v: Vector, spec: FieldSpec) -> bool:
    return not any(reduce_vector(basis, v, spec))


def subspace_meet(a: Matrix, b: Matrix, spec: FieldSpec) -> Matrix:
    """rref basis of the intersection of two row spaces (Zassenhaus)."""
    if a and b and len(a[0]) != len(b[0]):
        raise DimensionMismatch("ambient dimensions differ")
    if not a or not b:
        return ()
    width = len(a[0])
    zero = (0,) * width
    block = [row + row for row in a] + [row + zero for row in b]
    red = rref(tuple(block), spec)
    return rref(tuple(row[width:] for row in red if not any(row[:width])), spec)


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
    if len(red) != n or any(_pivot_col(red[i]) != i for i in range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)


# --------------------------------------------------------------------------
# The extension field F_{d^N} in the power basis 1, t, ..., t^{N-1}.
# --------------------------------------------------------------------------


def ext_one(spec: FieldSpec) -> Vector:
    return (1,) + (0,) * (spec.ext_degree - 1)


def ext_elements(spec: FieldSpec):
    """All d^N field elements in a deterministic order."""
    for coeffs in itertools.product(range(spec.d), repeat=spec.ext_degree):
        yield coeffs


def ext_mul(x: Vector, y: Vector, spec: FieldSpec) -> Vector:
    """Product in F_{d^N}, reduced modulo ext_poly."""
    n = spec.ext_degree
    if len(x) != n or len(y) != n:
        raise DimensionMismatch(f"expected coordinate vectors of length {n}")
    d = spec.d
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] = (prod[i + j] + a * b) % d
    poly = spec.ext_poly
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * poly[j]) % d
    return tuple(prod[:n])


def ext_pow(x: Vector, e: int, spec: FieldSpec) -> Vector:
    if e < 0:
        raise ValueError("negative exponent")
    result = ext_one(spec)
    base = tuple(c % spec.d for c in x)
    while e:
        if e & 1:
            result = ext_mul(result, base, spec)
        base = ext_mul(base, base, spec)
        e >>= 1
    return result


def ext_trace(x: Vector, spec: FieldSpec) -> int:
    """Trace from F_{d^N} down to F_d, as a residue."""
    d, n = spec.d, spec.ext_degree
    total = [0] * n
    power = tuple(c % d for c in x)
    for _ in range(n):
        total = [(total[i] + power[i]) % d for i in range(n)]
        power = ext_pow(power, d, spec)
    if any(total[1:]):
        raise NotInBaseField(f"trace of {x} landed outside F_{d}")
    return total[0]

"""Exact arithmetic over prime fields F_d.

Everything is plain integers and tuples: a vector is a tuple of residues in
[0, d), a matrix is a tuple of row vectors.  Subspaces are always kept in
reduced row echelon form (rref) with zero rows dropped, so two bases span
the same subspace iff they are equal as tuples.  All reductions are eager;
no value ever holds an unreduced residue.  Row reduction is the only
operation here; extension fields F_{d^N}, their modulus included, live
inside the field reduction of `spread`, as matrices over F_d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


def _integer(value, name: str) -> int:
    """value as an int: an int or numpy integer; a bool or any other type
    raises `TypeError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_d; d is an int or numpy integer, held as an int."""

    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d"))
        if self.d not in SUPPORTED_PRIMES:
            raise ValueError(f"d must be a prime in {SUPPORTED_PRIMES}, got {self.d}")


# --------------------------------------------------------------------------
# Row reduction.
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


"""From commuting classes to explicit mutually unbiased bases.

The common eigenbasis of a class is stored as the d^N x d^N unitary U of
joint eigenvectors of N class members whose images span the generator,
built in one batch per class: the N member matrices come from one
`pauli_matrices` write, and the identity, spectral table and character
phases are cached, read-only, per (d, N).  Each column is taken at the first index of
weight at least half the largest, the argmax of min(weight, max / 2): the
nonzero weights are all equal, so a plain argmax would follow rounding noise.
Unbiasedness between two bases is read off the overlaps |U^H V|^2, the
trace products tr(P Q) of the rank-1 projectors, free of eigenvector phases.
Each basis keeps its adjoint U^H, set once when it is made, so a pair costs
one `np.dot`, one modulus and two direct ufunc reductions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from . import spread as spread_mod
from .errors import DimensionMismatch, NonDiagonalizable, NotAClass
from .pauli import (
    CommutingClass,
    _read_only,
    _roots,
    class_from_generator,
    pauli_matrices,
)
from .spread import PartialSpread


@dataclass(frozen=True)
class Eigenbasis:
    dim: int
    unitary: np.ndarray
    # U^H, set once from the basis's own unitary, hand-built bases included.
    adjoint: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "adjoint", self.unitary.conj().T)

    @property
    def projectors(self) -> tuple:
        """The rank-1 projectors u u^H, one per column, built on each read."""
        return tuple(np.outer(u, u.conj()) for u in self.unitary.T)


@dataclass(frozen=True)
class UMUBCertificate:
    classes: tuple[int, ...]
    order: int
    complete: bool
    witness: int | None
    max_deviation: float
    valid: bool


@functools.cache
def _character_tables(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (d, N), cached and read-only: the d^N identity; the spectral table
    omega^{-k x} / d, row x, column k; and the character phases
    omega^{chi_j}, shape (N, 1, d^N), chi in lexicographic order."""
    roots = _roots(d)
    identity = np.eye(d**n, dtype=complex)
    table = roots[-np.outer(np.arange(d), np.arange(d)) % d] / d
    chars = roots[np.indices((d,) * n).reshape(n, 1, -1)]
    return _read_only(identity), _read_only(table), _read_only(chars)


def eigenprojectors(c: CommutingClass, spec) -> Eigenbasis:
    """The common eigenbasis of a commuting class, as a unitary U.

    Each of the N class members G_j whose images are the rref basis rows of
    the generator gives d spectral projectors (1/d) sum_k omega^{-k x} G_j^k.
    For chi in (Z_d)^N in lexicographic order, their product over j at
    x = chi_j is u u^H; column chi is its column at the first index of
    weight at least half the largest, normalised.  G_j^d = I,
    G_j U = U diag(omega^{chi_j}) and U^H U = I are checked within 1e-9, NaN
    failing each; together they make u u^H the joint eigenprojector for chi."""
    d = c.d
    if spec.d != d:
        raise DimensionMismatch("field order does not match the class")
    n = c.ops[0].num_systems
    dim = d**n
    by_image = {op.symplectic_image(): op for op in c.ops}
    basis = algebra.rref(tuple(by_image), spec)
    if len(basis) != n:
        raise NotAClass(f"images span rank {len(basis)}, expected {n}")
    mats = pauli_matrices([by_image[row] for row in basis], spec)
    identity, table, chars = _character_tables(d, n)
    powers = np.empty((d, *mats.shape), dtype=complex)
    powers[0] = identity
    powers[1] = mats
    for k in range(2, d):
        np.matmul(powers[k - 1], mats, out=powers[k])
    if not np.abs(powers[-1] @ mats - identity).max() <= 1e-9:
        raise NonDiagonalizable("class member lacks order d; fix the phase convention")
    spectral = (table @ powers.reshape(d, -1)).reshape(d, len(mats), dim, dim)
    joint = spectral[:, 0]
    for j in range(1, len(mats)):
        joint = (joint[:, None] @ spectral[None, :, j]).reshape(-1, dim, dim)
    chis = np.arange(len(joint))
    weight = joint.diagonal(axis1=1, axis2=2).real
    cols = np.argmax(np.minimum(weight, weight.max(axis=1, keepdims=True) / 2), axis=1)
    unitary = (joint[chis, :, cols] / np.sqrt(weight[chis, cols])[:, None]).T
    if not np.abs(mats @ unitary - unitary * chars).max() <= 1e-9:
        raise NonDiagonalizable("a column is not a joint eigenvector of the class")
    eigenbasis = Eigenbasis(dim, unitary)
    if not np.abs(eigenbasis.adjoint @ unitary - identity).max() <= 1e-9:
        raise NonDiagonalizable("joint eigenvectors are not orthonormal")
    return eigenbasis


def unbiasedness(p: Eigenbasis, q: Eigenbasis) -> float:
    """max over cross pairs of | |<u_i|v_j>|^2 - 1/dim | = | tr(P_i Q_j) - 1/dim |.

    Read off the largest and smallest modulus M and m of U^H V alone, as
    max(M^2 - 1/dim, 1/dim - m^2): squaring a nonnegative float and then
    subtracting are monotone and round symmetrically, so this is the
    entrywise maximum bit for bit.  U^H V is `np.dot` of p's kept adjoint
    and q's unitary, and M and m come from `np.maximum.reduce` and
    `np.minimum.reduce` directly, not through the `ndarray.max` wrappers;
    the rest is Python float arithmetic.  A NaN entry makes both M and m
    NaN, and the result with them."""
    if p.dim != q.dim:
        raise DimensionMismatch("bases act on different dimensions")
    moduli = np.abs(np.dot(p.adjoint, q.unitary))
    hi = float(np.maximum.reduce(moduli, axis=None))
    lo = float(np.minimum.reduce(moduli, axis=None))
    target = 1.0 / p.dim
    return max(hi * hi - target, target - lo * lo)


def certify_weak_umub(ps: PartialSpread, tolerance: float = 1e-9) -> UMUBCertificate:
    """Certificate for the classes over a partial spread.

    Valid iff the partial spread is complete (no further class exists) and
    every cross pair of member eigenbases is unbiased within tolerance.
    Failures are recorded in the certificate; a deviation that is not finite
    raises.  The tolerance must lie strictly between 0 and 1/d^N: at 1/d^N
    an orthogonal overlap of 0 would pass as unbiased.
    """
    space = ps.space
    target = 1.0 / space.d**space.n
    if not 0 < tolerance < target:
        raise ValueError(f"tolerance must lie in (0, {target}), got {tolerance}")
    cert = spread_mod.is_complete(ps)
    bases = [
        eigenprojectors(class_from_generator(g, space), space.field)
        for g in ps.member_generators()
    ]
    pairs = itertools.combinations(bases, 2)
    worst = float(np.max([unbiasedness(b1, b2) for b1, b2 in pairs], initial=0.0))
    if not math.isfinite(worst):
        raise NonDiagonalizable(f"overlap deviation {worst} between two eigenbases")
    return UMUBCertificate(
        classes=ps.members,
        order=ps.size,
        complete=cert.complete,
        witness=cert.witness,
        max_deviation=worst,
        valid=cert.complete and worst < tolerance,
    )

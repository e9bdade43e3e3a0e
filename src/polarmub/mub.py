"""From commuting classes to explicit mutually unbiased bases.

The common eigenbasis of a class is stored as the d^N x d^N unitary U of
joint eigenvectors of N class members whose images span the generator.
Unbiasedness between two bases is read off the overlaps |U^H V|^2, the
trace products tr(P Q) of the rank-1 projectors, free of eigenvector phases.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import algebra
from . import spread as spread_mod
from .errors import DimensionMismatch, NonDiagonalizable, ScaleExceeded
from .pauli import MAX_DENSE_DIM, CommutingClass, _omega, class_from_generator, pauli_matrix
from .spread import PartialSpread


@dataclass(frozen=True)
class Eigenbasis:
    dim: int
    unitary: np.ndarray

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


def eigenprojectors(c: CommutingClass, spec) -> Eigenbasis:
    """The common eigenbasis of a commuting class, as a unitary U.

    Each of the N class members G_j whose images are the rref basis rows of
    the generator gives d spectral projectors (1/d) sum_k omega^{-k x} G_j^k.
    For chi in (Z_d)^N in lexicographic order, their product over j at
    x = chi_j is u u^H, and its largest column, normalised, is column chi.
    G_j^d = I, G_j U = U diag(omega^{chi_j}) and U^H U = I are checked
    within 1e-9; together they make u u^H the joint eigenprojector for chi."""
    d = c.d
    if spec.d != d:
        raise DimensionMismatch("field order does not match the class")
    dim = d ** c.ops[0].num_systems
    if dim > MAX_DENSE_DIM:
        raise ScaleExceeded(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")
    by_image = {op.symplectic_image(): op for op in c.ops}
    basis = algebra.rref(tuple(by_image), spec)
    mats = [pauli_matrix(by_image[row], spec) for row in basis]
    identity = np.eye(dim, dtype=complex)
    roots = [_omega(d) ** k for k in range(d)]
    spectral = []
    for m in mats:
        pw = [np.linalg.matrix_power(m, k) for k in range(d + 1)]
        if np.max(np.abs(pw.pop() - identity)) > 1e-9:
            raise NonDiagonalizable("class member lacks order d; fix the phase convention")
        spectral.append([sum(roots[-k * x % d] * pw[k] for k in range(d)) / d for x in range(d)])
    columns = []
    for chi in itertools.product(range(d), repeat=len(mats)):
        p = functools.reduce(np.matmul, [s[x] for s, x in zip(spectral, chi)])
        weight = p.diagonal().real.tolist()
        columns.append(p[:, weight.index(max(weight))] / max(weight) ** 0.5)
    unitary = np.array(columns).T
    chars = np.array(list(itertools.product(range(d), repeat=len(mats))))
    for m, chi in zip(mats, chars.T):
        if not np.max(np.abs(m @ unitary - unitary * np.array(roots)[chi])) <= 1e-9:
            raise NonDiagonalizable("a column is not a joint eigenvector of the class")
    if not np.max(np.abs(unitary.conj().T @ unitary - identity)) <= 1e-9:
        raise NonDiagonalizable("joint eigenvectors are not orthonormal")
    return Eigenbasis(dim, unitary)


def unbiasedness(p: Eigenbasis, q: Eigenbasis) -> float:
    """max over cross pairs of | |<u_i|v_j>|^2 - 1/dim | = | tr(P_i Q_j) - 1/dim |."""
    if p.dim != q.dim:
        raise DimensionMismatch("bases act on different dimensions")
    overlaps = np.abs(p.unitary.conj().T @ q.unitary) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / p.dim)))


def certify_weak_umub(ps: PartialSpread, tolerance: float = 1e-9) -> UMUBCertificate:
    """Certificate for the classes over a partial spread.

    Valid iff the partial spread is complete (no further class exists) and
    every cross pair of member eigenbases is unbiased within tolerance.
    Failures are recorded in the certificate, never raised.  The tolerance
    must lie strictly between 0 and 1/d^N: at 1/d^N an orthogonal overlap of
    0 would pass as unbiased.
    """
    space = ps.space
    target = 1.0 / space.d**space.n
    if not 0 < tolerance < target:
        raise ValueError(f"tolerance must lie in (0, {target}), got {tolerance}")
    cert = spread_mod.is_complete(ps)
    bases = [
        eigenprojectors(class_from_generator(space.generator(m), space), space.field)
        for m in ps.members
    ]
    worst = 0.0
    for b1, b2 in itertools.combinations(bases, 2):
        worst = max(worst, unbiasedness(b1, b2))
    return UMUBCertificate(
        classes=ps.members,
        order=ps.size,
        complete=cert.complete,
        witness=cert.witness,
        max_deviation=worst,
        valid=cert.complete and worst < tolerance,
    )

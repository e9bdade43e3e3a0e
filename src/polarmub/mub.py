"""From commuting classes to explicit mutually unbiased bases.

The common eigenbasis of a class is stored as the d^N x d^N unitary U of
joint eigenvectors of N class members whose images span the generator,
built in one batch per class.  Each column is taken at the first index of
weight at least half the largest, the argmax of min(weight, max / 2): the
nonzero weights are all equal, so a plain argmax would follow rounding noise.
Unbiasedness between two bases is read off the overlaps |U^H V|^2, the
trace products tr(P Q) of the rank-1 projectors, free of eigenvector phases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from . import spread as spread_mod
from .errors import DimensionMismatch, NonDiagonalizable, ScaleExceeded
from .pauli import MAX_DENSE_DIM, CommutingClass, _roots, class_from_generator, pauli_matrix
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
    x = chi_j is u u^H; column chi is its column at the first index of
    weight at least half the largest, normalised.  G_j^d = I,
    G_j U = U diag(omega^{chi_j}) and U^H U = I are checked within 1e-9, NaN
    failing each; together they make u u^H the joint eigenprojector for chi."""
    d = c.d
    if spec.d != d:
        raise DimensionMismatch("field order does not match the class")
    dim = d ** c.ops[0].num_systems
    if dim > MAX_DENSE_DIM:
        raise ScaleExceeded(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")
    by_image = {op.symplectic_image(): op for op in c.ops}
    basis = algebra.rref(tuple(by_image), spec)
    mats = np.array([pauli_matrix(by_image[row], spec) for row in basis])
    identity = np.eye(dim, dtype=complex)
    powers = [np.broadcast_to(identity, mats.shape), mats]
    for _ in range(d - 1):
        powers.append(powers[-1] @ mats)
    if not np.max(np.abs(powers.pop() - identity)) <= 1e-9:
        raise NonDiagonalizable("class member lacks order d; fix the phase convention")
    roots = _roots(d)
    table = roots[-np.outer(np.arange(d), np.arange(d)) % d] / d
    spectral = (table @ np.array(powers).reshape(d, -1)).reshape(d, len(mats), dim, dim)
    joint = spectral[:, 0]
    for j in range(1, len(mats)):
        joint = (joint[:, None] @ spectral[None, :, j]).reshape(-1, dim, dim)
    chis = np.arange(len(joint))
    weight = joint.diagonal(axis1=1, axis2=2).real
    cols = np.argmax(np.minimum(weight, weight.max(axis=1, keepdims=True) / 2), axis=1)
    unitary = (joint[chis, :, cols] / np.sqrt(weight[chis, cols])[:, None]).T
    chars = np.indices((d,) * len(mats)).reshape(len(mats), -1)
    if not np.max(np.abs(mats @ unitary - unitary * roots[chars][:, None, :])) <= 1e-9:
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
        eigenprojectors(class_from_generator(space.generator(m), space), space.field)
        for m in ps.members
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

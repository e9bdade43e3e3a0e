"""From commuting classes to explicit mutually unbiased bases.

The common eigenbasis of a class is realised as d^N rank-1 joint
eigenprojectors, built from the character sums of N commuting class
members whose symplectic images span the generator.  Unbiasedness between
two bases is read off the trace products tr(P Q), which are basis-free and
avoid any eigenvector phase ambiguity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import algebra
from . import spread as spread_mod
from .errors import DimensionMismatch, NonDiagonalizable, ScaleExceeded
from .pauli import MAX_DENSE_DIM, CommutingClass, _omega, class_from_generator, pauli_matrix
from .spread import PartialSpread


@dataclass(frozen=True)
class ProjectorBasis:
    dim: int
    projectors: tuple


@dataclass(frozen=True)
class UMUBCertificate:
    classes: tuple[int, ...]
    order: int
    complete: bool
    witness: int | None
    max_deviation: float
    valid: bool


def eigenprojectors(c: CommutingClass, spec) -> ProjectorBasis:
    """The d^N rank-1 joint eigenprojectors of a commuting class.

    Picks the N class members whose images are the rref basis rows of the
    generator and, for each character chi of (Z_d)^N in lexicographic
    order, multiplies the spectral projectors (1/d) sum_k omega^{-k chi_j}
    G_j^k.
    """
    d = c.d
    n = c.ops[0].num_systems
    dim = d**n
    if dim > MAX_DENSE_DIM:
        raise ScaleExceeded(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")
    by_image = {op.symplectic_image(): op for op in c.ops}
    basis = algebra.rref(tuple(by_image), algebra.FieldSpec(d))
    gens = [by_image[row] for row in basis]
    w = _omega(d)
    identity = np.eye(dim, dtype=complex)
    powers = []
    for op in gens:
        m = pauli_matrix(op, spec)
        if np.max(np.abs(np.linalg.matrix_power(m, d) - identity)) > 1e-9:
            raise NonDiagonalizable(
                "class representative does not have order d; fix the phase convention"
            )
        pw = [identity]
        for _ in range(d - 1):
            pw.append(pw[-1] @ m)
        powers.append(pw)
    projectors = []
    for chi in itertools.product(range(d), repeat=len(gens)):
        p = identity
        for j, pw in enumerate(powers):
            s = sum(w ** (-(k * chi[j])) * pw[k] for k in range(d)) / d
            p = p @ s
        projectors.append(p)
    return ProjectorBasis(dim, tuple(projectors))


def unbiasedness(p: ProjectorBasis, q: ProjectorBasis) -> float:
    """max over cross pairs of | tr(P_i Q_j) - 1/dim |."""
    if p.dim != q.dim:
        raise DimensionMismatch("bases act on different dimensions")
    target = 1.0 / p.dim
    worst = 0.0
    for pi in p.projectors:
        for qj in q.projectors:
            dev = abs(np.trace(pi @ qj) - target)
            worst = max(worst, float(dev))
    return worst


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

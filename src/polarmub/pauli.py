"""Generalized Pauli operators on N d-level systems.

An operator is stored symbolically: exponent vectors a, b encode the
tensor product of single-system factors X^{a_j} Z^{b_j}, together with a
phase exponent (a power of omega = exp(2*pi*i/d) for odd d, a power of i
for d = 2).  The symplectic image interleaves a and b one tensor factor at
a time, so the canonical alternating form of the polar space is exactly
the commutation pairing.  Dense matrices are built on demand, never cached
on the operator: X^a Z^b is a monomial matrix, written by index in one
assignment, with no product over tensor factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import FieldSpec, Vector
from .errors import DimensionMismatch, NotAClass, ScaleExceeded
from .polar import Generator, PolarSpace

MAX_DENSE_DIM = 32


@dataclass(frozen=True)
class PauliOp:
    d: int
    a: Vector
    b: Vector
    phase_exp: int = 0

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise DimensionMismatch("a and b must have equal length")
        object.__setattr__(self, "a", tuple(x % self.d for x in self.a))
        object.__setattr__(self, "b", tuple(x % self.d for x in self.b))
        modulus = 4 if self.d == 2 else self.d
        object.__setattr__(self, "phase_exp", self.phase_exp % modulus)

    @property
    def num_systems(self) -> int:
        return len(self.a)

    def symplectic_image(self) -> Vector:
        out = []
        for aj, bj in zip(self.a, self.b):
            out.append(aj)
            out.append(bj)
        return tuple(out)


def op_from_image(v: Vector, d: int) -> PauliOp:
    """Canonical coset representative with symplectic image v.

    For odd d the representative X^a Z^b carries no phase and has order d;
    for d = 2 it is i^{a.b} X^a Z^b, which squares to the identity.
    """
    a = tuple(v[0::2])
    b = tuple(v[1::2])
    phase = 0
    if d == 2:
        phase = sum(x * y for x, y in zip(a, b)) % 4
    return PauliOp(d, a, b, phase)


@dataclass(frozen=True)
class CommutingClass:
    d: int
    ops: tuple[PauliOp, ...]
    generator_image: int


def commutes(p: PauliOp, q: PauliOp, space: PolarSpace) -> bool:
    """Symplectic criterion: zero form iff the dense matrices commute.
    Kept for acceptance 1, which states this criterion."""
    if p.d != q.d or p.d != space.d or p.num_systems != space.n:
        raise DimensionMismatch("operators do not live in this space")
    return space.symp_form(p.symplectic_image(), q.symplectic_image()) == 0


def _roots(m: int) -> np.ndarray:
    """The m-th roots of unity exp(2 pi i k / m), k < m."""
    return np.array([np.exp(2j * np.pi * k / m) for k in range(m)])


def pauli_matrix(op: PauliOp, spec: FieldSpec) -> np.ndarray:
    """Dense matrix of the operator, phase included: column s (base-d digits,
    system 0 most significant) holds omega^{b.s} at row s + a, digitwise,
    times i^{phase} at d = 2 and omega^{phase} at odd d."""
    d = spec.d
    if d != op.d:
        raise DimensionMismatch("field order does not match the operator")
    n = op.num_systems
    dim = d**n
    if dim > MAX_DENSE_DIM:
        raise ScaleExceeded(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")
    digits = np.indices((d,) * n).reshape(n, dim).T
    m = 4 if d == 2 else d
    phases = _roots(m)[(m // d * (digits @ op.b) + op.phase_exp) % m]
    out = np.zeros((dim, dim), dtype=complex)
    out[(digits + op.a) % d @ d ** np.arange(n - 1, -1, -1), np.arange(dim)] = phases
    return out


def class_from_generator(g: Generator, space: PolarSpace) -> CommutingClass:
    """The d^N - 1 canonical coset representatives over a generator.

    One operator per nonzero vector of the underlying rank-N subspace, in
    lexicographic vector order; commuting is inherited from total isotropy.
    Those vectors are the nonzero multiples of the generator's points.
    """
    d = space.d
    points = (space.points[p] for p in space.point_indices(g.point_mask))
    vecs = sorted(tuple(c * x % d for x in v) for v in points for c in range(1, d))
    ops = tuple(op_from_image(v, d) for v in vecs)
    return CommutingClass(space.d, ops, g.gen_index)


def generator_from_class(c: CommutingClass, space: PolarSpace) -> Generator:
    """The generator spanned by the symplectic images of a class."""
    images = tuple(op.symplectic_image() for op in c.ops)
    if not all(any(v) for v in images):
        raise NotAClass("the identity, whose image is zero, is no class member")
    basis = algebra.rref(images, space.field)
    if len(basis) != space.n:
        raise NotAClass(f"images span rank {len(basis)}, expected {space.n}")
    for u, v in itertools.combinations(basis, 2):
        if space.symp_form(u, v):
            raise NotAClass("images do not span a totally isotropic subspace")
    if len(set(images)) != space.d**space.n - 1:
        raise NotAClass("class must hold one operator per nonzero vector")
    return space.generator_by_basis(basis)

"""Generalized Pauli operators on N d-level systems.

An operator is stored symbolically: exponent vectors a, b encode the
tensor product of single-system factors X^{a_j} Z^{b_j}, together with a
phase exponent (a power of omega = exp(2*pi*i/d) for odd d, a power of i
for d = 2).  The symplectic image interleaves a and b one tensor factor at
a time, so the canonical alternating form of the polar space is exactly
the commutation pairing.  Dense matrices are built on demand, never cached
on the operator: X^a Z^b is a monomial matrix, and `pauli_matrices` writes
the matrices of a whole batch of operators by index in one assignment, with
no product over tensor factors.  The roots of unity and the digit and
place-value tables it indexes by are cached, read-only, per (d, N).

Operators themselves are cached per point: `_point_ops` builds the d - 1
operators of a point's nonzero multiples once per process, and every class
through that point holds those same frozen objects.  The cache thus holds
at most one operator per nonzero vector of each (d, N) in use.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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
        d = self.d
        if len(self.a) != len(self.b):
            raise DimensionMismatch("a and b must have equal length")
        object.__setattr__(self, "a", tuple([x % d for x in self.a]))
        object.__setattr__(self, "b", tuple([x % d for x in self.b]))
        object.__setattr__(self, "phase_exp", self.phase_exp % (4 if d == 2 else d))

    @property
    def num_systems(self) -> int:
        return len(self.a)

    def symplectic_image(self) -> Vector:
        out = [0] * (2 * len(self.a))
        out[0::2] = self.a
        out[1::2] = self.b
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _roots(m: int) -> np.ndarray:
    """The m-th roots of unity exp(2 pi i k / m), k < m; cached, read-only."""
    return _read_only(np.array([np.exp(2j * np.pi * k / m) for k in range(m)]))


@functools.cache
def _digits(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The base-d digits of each basis index s < d^n, shape (d^n, n), system 0
    most significant, and their place values d^{n-1}, ..., 1; cached, read-only."""
    digits = np.indices((d,) * n).reshape(n, d**n).T
    return _read_only(digits), _read_only(d ** np.arange(n - 1, -1, -1))


def pauli_matrices(ops: Sequence[PauliOp], spec: FieldSpec) -> np.ndarray:
    """Dense matrices of operators on the same N systems, phases included,
    shape (len(ops), d^N, d^N), all written in one indexed assignment.

    Column s (base-d digits) of X^a Z^b holds omega^{b.s} at row s + a,
    digitwise, times i^{phase} at d = 2 and omega^{phase} at odd d."""
    d = spec.d
    if any(op.d != d for op in ops):
        raise DimensionMismatch("field order does not match the operator")
    n = ops[0].num_systems
    if any(op.num_systems != n for op in ops):
        raise DimensionMismatch("operators act on different numbers of systems")
    dim = d**n
    if dim > MAX_DENSE_DIM:
        raise ScaleExceeded(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")
    digits, places = _digits(d, n)
    a = np.array([op.a for op in ops]).reshape(len(ops), 1, n)
    b = np.array([op.b for op in ops]).reshape(len(ops), n)
    phase = np.array([op.phase_exp for op in ops]).reshape(len(ops), 1)
    m = 4 if d == 2 else d
    phases = _roots(m)[(m // d * (b @ digits.T) + phase) % m]
    out = np.zeros((len(ops), dim, dim), dtype=complex)
    out[np.arange(len(ops))[:, None], (digits + a) % d @ places, np.arange(dim)] = phases
    return out


@functools.cache
def _point_ops(v: Vector, d: int) -> tuple[tuple[Vector, PauliOp], ...]:
    """(image, canonical operator) for each nonzero multiple c v, c < d, of a
    point; cached, so each operator is built once per process."""
    images = [tuple([c * x % d for x in v]) for c in range(1, d)]
    return tuple([(w, op_from_image(w, d)) for w in images])


def class_from_generator(g: Generator, space: PolarSpace) -> CommutingClass:
    """The d^N - 1 canonical coset representatives over a generator of
    `space`, read through `space.generator`.

    One operator per nonzero vector of the underlying rank-N subspace, in
    lexicographic vector order; commuting is inherited from total isotropy.
    Those vectors are the nonzero multiples of the generator's points, and
    their operators are the shared ones of `_point_ops`.
    """
    g = space.generator(g)
    d, points = space.d, space.points
    row = space.generator_points[g.gen_index].tolist()
    pairs = [pair for p in row for pair in _point_ops(points[p], d)]
    pairs.sort(key=lambda pair: pair[0])
    return CommutingClass(d, tuple([op for _, op in pairs]), g.gen_index)


def generator_from_class(c: CommutingClass, space: PolarSpace) -> Generator:
    """The generator whose nonzero vectors are the symplectic images of a
    class.  The images must be d^N - 1 distinct nonzero vectors that span a
    generator; that generator has exactly d^N - 1 nonzero vectors, so the
    images are all of them."""
    d, n = space.d, space.n
    if c.d != d or any(op.d != d or len(op.a) != n for op in c.ops):
        raise DimensionMismatch(f"class operators do not act on W_{space.dim - 1}({d})")
    images = [op.symplectic_image() for op in c.ops]
    if not all(any(v) for v in images):
        raise NotAClass("the identity, whose image is zero, is no class member")
    if len(set(images)) != d**n - 1:
        raise NotAClass("class must hold one operator per nonzero vector")
    try:
        return space.generator_by_basis(images)
    except ValueError:
        raise NotAClass("images are not the nonzero vectors of a generator") from None

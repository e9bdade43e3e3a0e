"""Tests for eigenprojector bases and unbiasedness certificates."""

import itertools

import numpy as np
import pytest

from polarmub import mub, pauli, spread
from polarmub.algebra import FieldSpec
from polarmub.errors import DimensionMismatch, NonDiagonalizable
from polarmub.pauli import class_from_generator
from polarmub.polar import PolarSpace

W32 = PolarSpace(2, 2)
W33 = PolarSpace(3, 2)

TOL = 1e-9


def projector_residuals(basis):
    """Max residual over idempotency, orthogonality, trace-1, completeness."""
    worst = 0.0
    total = np.zeros((basis.dim, basis.dim), dtype=complex)
    for p in basis.projectors:
        worst = max(worst, np.max(np.abs(p @ p - p)))
        worst = max(worst, abs(np.trace(p) - 1.0))
        worst = max(worst, np.max(np.abs(p - p.conj().T)))
        total += p
    worst = max(worst, np.max(np.abs(total - np.eye(basis.dim))))
    for p, q in itertools.combinations(basis.projectors, 2):
        worst = max(worst, np.max(np.abs(p @ q)))
    return worst


def test_single_qubit_z_class():
    space = PolarSpace(2, 1)
    z_gen = space.generator_by_basis(((0, 1),))
    c = class_from_generator(z_gen, space)
    basis = mub.eigenprojectors(c, space.field)
    assert np.allclose(basis.projectors[0], np.diag([1, 0]), atol=TOL)
    assert np.allclose(basis.projectors[1], np.diag([0, 1]), atol=TOL)


def test_two_qubit_projectors():
    for g in W32.generators[:4]:
        basis = mub.eigenprojectors(class_from_generator(g, W32), W32.field)
        assert len(basis.projectors) == 4
        assert projector_residuals(basis) < TOL


def test_two_qutrit_projectors():
    basis = mub.eigenprojectors(
        class_from_generator(W33.generators[0], W33), W33.field
    )
    assert len(basis.projectors) == 9
    assert projector_residuals(basis) < TOL


def test_projectors_commute_with_class():
    g = W33.generators[5]
    c = class_from_generator(g, W33)
    basis = mub.eigenprojectors(c, W33.field)
    mats = [pauli.pauli_matrix(op, W33.field) for op in c.ops]
    for p in basis.projectors:
        for m in mats:
            assert np.max(np.abs(p @ m - m @ p)) < TOL


def test_bad_phase_raises_nondiagonalizable():
    g = W32.generators[0]
    c = class_from_generator(g, W32)
    twisted = pauli.CommutingClass(
        2,
        tuple(
            pauli.PauliOp(2, op.a, op.b, op.phase_exp + 1) for op in c.ops
        ),
        c.generator_image,
    )
    with pytest.raises(NonDiagonalizable):
        mub.eigenprojectors(twisted, W32.field)


def test_self_overlap_is_maximally_biased():
    basis = mub.eigenprojectors(
        class_from_generator(W32.generators[0], W32), W32.field
    )
    assert abs(mub.unbiasedness(basis, basis) - (1 - 0.25)) < TOL


def test_disjoint_lines_give_unbiased_bases():
    g = W32.generators[0]
    h = next(x for x in W32.generators if not x.point_mask & g.point_mask)
    b1 = mub.eigenprojectors(class_from_generator(g, W32), W32.field)
    b2 = mub.eigenprojectors(class_from_generator(h, W32), W32.field)
    assert mub.unbiasedness(b1, b2) < TOL


def test_overlaps_are_real_nonnegative():
    g = W33.generators[0]
    h = next(x for x in W33.generators if not x.point_mask & g.point_mask)
    b1 = mub.eigenprojectors(class_from_generator(g, W33), W33.field)
    b2 = mub.eigenprojectors(class_from_generator(h, W33), W33.field)
    for p in b1.projectors:
        for q in b2.projectors:
            val = np.trace(p @ q)
            assert abs(val.imag) < TOL
            assert val.real > -TOL


def test_dimension_mismatch():
    b1 = mub.eigenprojectors(
        class_from_generator(W32.generators[0], W32), W32.field
    )
    b2 = mub.eigenprojectors(
        class_from_generator(W33.generators[0], W33), W33.field
    )
    with pytest.raises(DimensionMismatch):
        mub.unbiasedness(b1, b2)


def test_full_spread_gives_five_mubs():
    s = spread.construct_symplectic_spread(W32)
    bases = [
        mub.eigenprojectors(class_from_generator(W32.generator(m), W32), W32.field)
        for m in s.members
    ]
    for b1, b2 in itertools.combinations(bases, 2):
        assert mub.unbiasedness(b1, b2) < TOL


def test_certificate_for_unextendible_triple():
    triple = next(
        p for p in spread.search_maximal(W32, "exhaustive") if p.size == 3
    )
    cert = mub.certify_weak_umub(triple)
    assert cert.valid
    assert cert.order == 3
    assert cert.complete
    assert cert.max_deviation < TOL


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan"), float("inf"), 0.25])
def test_certificate_refuses_tolerance_outside_open_interval(tolerance):
    # At or above 1/d^N = 1/4 an orthogonal overlap of 0 would pass.
    s = spread.construct_symplectic_spread(W32)
    with pytest.raises(ValueError, match="tolerance"):
        mub.certify_weak_umub(s, tolerance=tolerance)


def test_certificate_default_and_near_bound_tolerance_pass():
    s = spread.construct_symplectic_spread(W32)
    assert mub.certify_weak_umub(s).valid
    assert mub.certify_weak_umub(s, tolerance=0.2499).valid


def test_certificate_rejects_extendible_pair():
    s = spread.construct_symplectic_spread(W32)
    pair = spread.partial_spread(W32, s.members[:2])
    cert = mub.certify_weak_umub(pair)
    assert not cert.valid
    assert not cert.complete
    assert cert.witness is not None
    assert cert.max_deviation < TOL  # unbiased, just not unextendible

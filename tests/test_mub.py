"""Tests for eigenprojector bases and unbiasedness certificates."""

import hashlib
import itertools
import math
import random

import numpy as np
import oracles
import pytest

from polarmub import mub, pauli, spread
from polarmub.algebra import FieldSpec
from polarmub.errors import DimensionMismatch, NonDiagonalizable, NotAClass, ScaleExceeded
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
    mats = pauli.pauli_matrices(c.ops, W33.field)
    for p in basis.projectors:
        for m in mats:
            assert np.max(np.abs(p @ m - m @ p)) < TOL


def test_cached_character_tables_are_read_only():
    tables = mub._character_tables(3, 2)
    assert [t.shape for t in tables] == [(9, 9), (3, 3), (2, 1, 9)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    assert mub._character_tables(3, 2) is tables


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


def test_eigenbasis_over_another_field_is_refused():
    c = class_from_generator(W33.generators[7], W33)
    for d in (2, 5):
        with pytest.raises(DimensionMismatch):
            mub.eigenprojectors(c, FieldSpec(d))


@pytest.mark.parametrize("which", ["two-ops", "two-classes"])
def test_images_of_the_wrong_rank_are_not_a_class(which):
    # Two ops of one class span rank 1; two disjoint classes span rank 4.
    c = class_from_generator(W33.generators[0], W33)
    if which == "two-ops":
        ops = c.ops[:2]
    else:
        far = next(g for g in W33.generators if not g.point_mask & W33.generators[0].point_mask)
        ops = c.ops + class_from_generator(far, W33).ops
    with pytest.raises(NotAClass, match="span rank"):
        mub.eigenprojectors(pauli.CommutingClass(3, ops, c.generator_image), W33.field)


def test_class_beyond_the_dense_limit_is_refused():
    # W_3(7): d^N = 49 exceeds pauli.MAX_DENSE_DIM, the one dense guard.
    space = PolarSpace(7, 2)
    c = class_from_generator(space.generators[0], space)
    with pytest.raises(ScaleExceeded, match=r"^dense dimension 49 exceeds 32$") as refused:
        mub.eigenprojectors(c, space.field)
    assert refused.traceback[-1].name == "pauli_matrices"


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


@pytest.mark.parametrize("deviation", [float("nan"), float("inf")])
def test_certificate_raises_on_a_nonfinite_deviation(monkeypatch, deviation):
    # max(0.0, nan) is 0.0: a NaN deviation dropped by max would certify.
    unbiasedness, calls = mub.unbiasedness, itertools.count(1)

    def patched(p, q):
        return deviation if next(calls) == 3 else unbiasedness(p, q)

    monkeypatch.setattr(mub, "unbiasedness", patched)
    s = spread.construct_symplectic_spread(W32)
    with pytest.raises(NonDiagonalizable, match=f"overlap deviation {deviation}"):
        mub.certify_weak_umub(s)


def nan_basis(basis, row, col):
    u = basis.unitary.copy()
    u[row, col] = np.nan
    return mub.Eigenbasis(basis.dim, u)


def test_nan_in_a_basis_gives_a_nonfinite_deviation(monkeypatch):
    # One NaN entry spoils one row or column of the overlaps; a reduction
    # that skips NaN (Python max, np.nanmax) would report the rest.
    s = spread.construct_symplectic_spread(W32)
    b1, b2 = (
        mub.eigenprojectors(class_from_generator(W32.generator(m), W32), W32.field)
        for m in s.members[:2]
    )
    for row, col in itertools.product(range(4), repeat=2):
        assert not math.isfinite(mub.unbiasedness(nan_basis(b1, row, col), b2))
        assert not math.isfinite(mub.unbiasedness(b1, nan_basis(b2, row, col)))
    eigenprojectors, calls = mub.eigenprojectors, itertools.count(1)

    def patched(c, spec):
        basis = eigenprojectors(c, spec)
        return nan_basis(basis, 3, 1) if next(calls) == 4 else basis

    monkeypatch.setattr(mub, "eigenprojectors", patched)
    with pytest.raises(NonDiagonalizable, match="overlap deviation nan"):
        mub.certify_weak_umub(s)


def test_certificate_rejects_extendible_pair():
    s = spread.construct_symplectic_spread(W32)
    pair = spread.partial_spread(W32, s.members[:2])
    cert = mub.certify_weak_umub(pair)
    assert not cert.valid
    assert not cert.complete
    assert cert.witness is not None
    assert cert.max_deviation < TOL  # unbiased, just not unextendible


# -- pins of the trace-product definitions against tests/oracles.py


def trace_deviation(b1, b2):
    """max |tr(P Q) - 1/dim| over cross pairs of the bases' projectors."""
    ps, qs = np.array(b1.projectors), np.array(b2.projectors)
    traces = np.einsum("aij,bji->ab", ps, qs)
    return float(np.max(np.abs(traces - 1.0 / b1.dim)))


def all_bases(sp):
    return [
        mub.eigenprojectors(class_from_generator(g, sp), sp.field) for g in sp.generators
    ]


W52 = PolarSpace(2, 3)
W35 = PolarSpace(5, 2)


def sampled_pairs(sp, count, seed):
    pairs = list(itertools.combinations(range(sp.num_generators), 2))
    return random.Random(seed).sample(pairs, count)


@pytest.mark.parametrize(
    "sp, pairs",
    [
        (W33, None),
        (W52, lambda: sampled_pairs(W52, 300, 7)),
        (W35, lambda: sampled_pairs(W35, 150, 11)),
    ],
    ids=["W_3(3)", "W_5(2)", "W_3(5)"],
)
def test_unbiasedness_matches_trace_products(sp, pairs):
    bases = all_bases(sp)
    if pairs is None:
        pairs = list(itertools.combinations(range(sp.num_generators), 2))
    else:
        pairs = pairs()
    disjoint = sum(1 for i, j in pairs if sp.disjoint_adjacency[i] >> j & 1)
    assert disjoint > 0 and disjoint < len(pairs)
    for i, j in pairs:
        assert abs(mub.unbiasedness(bases[i], bases[j]) - trace_deviation(bases[i], bases[j])) < TOL


W72 = PolarSpace(2, 4)


@pytest.mark.parametrize(
    "sp, sample, count",
    [
        (W52, None, 4320),
        (W33, None, 540),
        (W32, None, 60),
        (W35, None, 9750),
        (W72, 300, 20257),
    ],
    ids=["W_5(2)", "W_3(3)", "W_3(2)", "W_3(5)", "W_7(2)"],
)
def test_unbiasedness_matches_the_entrywise_reduction_bit_for_bit(sp, sample, count):
    # Every disjoint pair, or those among a fixed sample of generators.
    gens = range(sp.num_generators)
    if sample is not None:
        gens = sorted(random.Random(17).sample(gens, sample))
    bases = {i: mub.eigenprojectors(class_from_generator(sp.generator(i), sp), sp.field) for i in gens}
    pairs = [(i, j) for i, j in itertools.combinations(gens, 2) if sp.disjoint_adjacency[i] >> j & 1]
    assert len(pairs) == count
    for i, j in pairs:
        assert mub.unbiasedness(bases[i], bases[j]) == oracles.unbiasedness(bases[i], bases[j])


def test_eigenbasis_keeps_the_adjoint_of_its_own_unitary():
    u = mub.eigenprojectors(class_from_generator(W33.generators[3], W33), W33.field).unitary
    adjoint = mub.Eigenbasis(9, u).adjoint
    expected = u.conj().T
    assert adjoint.tobytes("A") == expected.tobytes("A") and adjoint.strides == expected.strides
    hand = nan_basis(mub.Eigenbasis(9, u), 2, 5)
    assert np.array_equal(hand.adjoint, hand.unitary.conj().T, equal_nan=True)
    assert np.isnan(hand.adjoint[5, 2]) and not np.isnan(mub.Eigenbasis(9, u).adjoint[5, 2])


@pytest.mark.parametrize("sp", [W32, W33, W52], ids=["W_3(2)", "W_3(3)", "W_5(2)"])
def test_projectors_match_character_sums_in_order(sp):
    for g in sp.generators:
        c = class_from_generator(g, sp)
        u = mub.eigenprojectors(c, sp.field).unitary
        got = np.einsum("ik,jk->kij", u, u.conj())
        assert np.max(np.abs(got - oracles.joint_projectors(c, sp.field))) < TOL


@pytest.mark.parametrize(
    "sp", [W32, W33, W52, W35], ids=["W_3(2)", "W_3(3)", "W_5(2)", "W_3(5)"]
)
def test_eigenbasis_matches_per_character_oracle(sp):
    # Same columns, not only the same projectors: the half-max column rule
    # does not depend on the last-ulp noise of the nonzero diagonal weights.
    for g in sp.generators:
        c = class_from_generator(g, sp)
        got = mub.eigenprojectors(c, sp.field).unitary
        assert np.max(np.abs(got - oracles.eigenbasis(c, sp.field))) < 1e-12


@pytest.mark.parametrize("sp", [W32, W33, W52], ids=["W_3(2)", "W_3(3)", "W_5(2)"])
def test_overlaps_follow_meet_dimension_and_unbiasedness_is_disjointness(sp):
    # Stabilizer-state overlap rule: for a meet of dimension k every entry of
    # |U_g^H U_h|^2 is 0 or d^k/d^N, so bases are unbiased (k = 0) exactly
    # when their generators are disjoint.
    d, dim = sp.d, sp.d**sp.n
    us = np.array([b.unitary for b in all_bases(sp)])
    overlaps = np.abs(np.einsum("gai,haj->ghij", us.conj(), us)) ** 2
    meet_dim = {(d**k - 1) // (d - 1): k for k in range(sp.n + 1)}
    masks = [g.point_mask for g in sp.generators]
    k = np.array([[meet_dim[bin(a & b).count("1")] for b in masks] for a in masks])
    nonzero = (float(d) ** k / dim)[:, :, None, None]
    assert np.max(np.minimum(overlaps, np.abs(overlaps - nonzero))) < TOL
    unbiased = np.max(np.abs(overlaps - 1.0 / dim), axis=(2, 3)) < TOL
    assert [sum(1 << int(h) for h in np.flatnonzero(row)) for row in unbiased] == list(
        sp.disjoint_adjacency
    )


# sha256 over every class's eigenbasis unitary, in catalog order.
EIGENBASIS_DIGESTS = {
    "W_3(2)": "32d682aa62f98311943fc37e40f6b71ae4e62ee2e04240ab2e8bf76095f5f8aa",
    "W_3(3)": "959c3636d6ecc3ef702deb8ec2ca54b4f6a7abe80976fe2b2bacb67b9e41c04d",
    "W_5(2)": "81eac1e389a5406e3adddfc806e96ba29dff0044e055bb3e0f16abbe762c97ac",
    "W_3(5)": "73ca2d2266e7526a82df9a75886e19c4fe5090e6aaadf28511c4dfbf0420602f",
}


@pytest.mark.parametrize(
    "sp, key", [(W32, "W_3(2)"), (W33, "W_3(3)"), (W52, "W_5(2)"), (W35, "W_3(5)")]
)
def test_eigenbases_are_pinned(sp, key):
    digest = hashlib.sha256()
    for g in sp.generators:
        basis = mub.eigenprojectors(class_from_generator(g, sp), sp.field)
        digest.update(basis.unitary.tobytes())
    assert digest.hexdigest() == EIGENBASIS_DIGESTS[key]


def patch_member_matrices(monkeypatch, change):
    """Route every dense member matrix through change(member number, matrix).

    `eigenprojectors` writes its N member matrices in one `pauli_matrices`
    batch; members are numbered from 1 across batches, in batch order."""
    members = itertools.count(1)

    def patched(ops, spec):
        return np.array([change(next(members), m) for m in pauli.pauli_matrices(ops, spec)])

    monkeypatch.setattr(mub, "pauli_matrices", patched)


def test_noncommuting_member_raises_typed_error(monkeypatch):
    # A unitary conjugate of the second member keeps order d but no longer
    # commutes with the first, so the columns are not joint eigenvectors.
    rng = np.random.default_rng(5)
    v, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    patch_member_matrices(monkeypatch, lambda i, m: v @ m @ v.conj().T if i == 2 else m)
    c = class_from_generator(W33.generators[3], W33)
    with pytest.raises(NonDiagonalizable, match="not a joint eigenvector"):
        mub.eigenprojectors(c, W33.field)


def test_nonunitary_eigenvectors_raise_typed_error(monkeypatch):
    # A shared non-unitary similarity keeps order d and commutation, so the
    # columns are joint eigenvectors, but they are no longer orthonormal.
    s = np.eye(9) + 0.3 * np.random.default_rng(5).normal(size=(9, 9))
    s_inv = np.linalg.inv(s)
    patch_member_matrices(monkeypatch, lambda i, m: s @ m @ s_inv)
    c = class_from_generator(W33.generators[3], W33)
    with pytest.raises(NonDiagonalizable, match="orthonormal"):
        mub.eigenprojectors(c, W33.field)


def test_nan_member_lacks_order_d(monkeypatch):
    # Every comparison with NaN is false, so the order-d check must fail on
    # a NaN member rather than hand it on to the eigenvector check.
    patch_member_matrices(monkeypatch, lambda i, m: np.full_like(m, np.nan) if i == 2 else m)
    c = class_from_generator(W33.generators[3], W33)
    with pytest.raises(NonDiagonalizable, match="lacks order d"):
        mub.eigenprojectors(c, W33.field)

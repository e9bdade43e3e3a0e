"""Tests for the symbolic Pauli layer against the dense-matrix oracle."""

import hashlib
import itertools
import random

import numpy as np
import oracles
import pytest

from polarmub import pauli, spread
from polarmub.algebra import FieldSpec
from polarmub.errors import DimensionMismatch, NotAClass, ScaleExceeded
from polarmub.pauli import PauliOp, class_from_generator, generator_from_class
from polarmub.polar import PolarSpace

W32 = PolarSpace(2, 2)
W33 = PolarSpace(3, 2)
W52 = PolarSpace(2, 3)
W35 = PolarSpace(5, 2)

TOL = 1e-9


def commutator_norm(m1, m2):
    return np.max(np.abs(m1 @ m2 - m2 @ m1))


def nonidentity_reps(space):
    d, n = space.d, space.n
    out = []
    for exps in itertools.product(range(d), repeat=2 * n):
        if not any(exps):
            continue
        a, b = exps[:n], exps[n:]
        out.append(pauli.op_from_image(
            tuple(x for pair in zip(a, b) for x in pair), d))
    return out


# -- matrices


def test_identity_matrix():
    m = pauli.pauli_matrices([PauliOp(2, (0, 0), (0, 0))], FieldSpec(2))[0]
    assert np.allclose(m, np.eye(4))


def test_bit_flip_matrix():
    m = pauli.pauli_matrices([PauliOp(2, (1,), (0,))], FieldSpec(2))[0]
    assert np.allclose(m, np.array([[0, 1], [1, 0]]))


def test_qutrit_clock_matrix():
    w = np.exp(2j * np.pi / 3)
    m = pauli.pauli_matrices([PauliOp(3, (0,), (1,))], FieldSpec(3))[0]
    assert np.allclose(m, np.diag([1, w, w**2]))


def test_matrices_unitary_traceless():
    spec = FieldSpec(3)
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randrange(3) for _ in range(2))
        b = tuple(rng.randrange(3) for _ in range(2))
        m = pauli.pauli_matrices([PauliOp(3, a, b)], spec)[0]
        assert np.allclose(m @ m.conj().T, np.eye(9), atol=TOL)
        if any(a) or any(b):
            assert abs(np.trace(m)) < TOL


@pytest.mark.parametrize(
    "sp", [W32, W33, W52, W35], ids=["W_3(2)", "W_3(3)", "W_5(2)", "W_3(5)"]
)
def test_matrices_match_kron_oracle_on_every_class_operator(sp):
    # At d = 2 every canonical representative with a.b odd carries i^{a.b}.
    classes = [class_from_generator(g, sp).ops for g in sp.generators]
    assert sp.d != 2 or any(op.phase_exp for ops in classes for op in ops)
    for ops in classes:
        for op, got in zip(ops, pauli.pauli_matrices(ops, sp.field)):
            assert np.max(np.abs(got - oracles.kron_pauli_matrix(op, sp.field))) < 1e-12


def test_batch_refuses_operators_of_another_field_or_size():
    ops = [PauliOp(3, (1, 0), (0, 1)), PauliOp(3, (0, 2), (1, 1))]
    assert pauli.pauli_matrices(ops, FieldSpec(3)).shape == (2, 9, 9)
    with pytest.raises(DimensionMismatch):
        pauli.pauli_matrices(ops, FieldSpec(5))
    with pytest.raises(DimensionMismatch):
        pauli.pauli_matrices([*ops, PauliOp(5, (1, 0), (0, 1))], FieldSpec(3))
    with pytest.raises(DimensionMismatch):
        pauli.pauli_matrices([*ops, PauliOp(3, (1,), (0,))], FieldSpec(3))


def test_cached_tables_are_read_only():
    # The tables are shared by every caller, so a write must fail, not
    # corrupt the next class.
    tables = [pauli._roots(4), pauli._roots(3), *pauli._digits(3, 2)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    assert pauli._roots(4) is tables[0]


def test_matrix_scale_guard():
    with pytest.raises(ScaleExceeded):
        pauli.pauli_matrices([PauliOp(2, (0,) * 6, (0,) * 6)], FieldSpec(2))


def test_canonical_rep_order():
    # Odd d: representatives have order d.  d = 2: they square to identity.
    spec = FieldSpec(3)
    for op in nonidentity_reps(W33)[:20]:
        m = pauli.pauli_matrices([op], spec)[0]
        assert np.allclose(np.linalg.matrix_power(m, 3), np.eye(9), atol=TOL)
    spec2 = FieldSpec(2)
    for op in nonidentity_reps(W32):
        m = pauli.pauli_matrices([op], spec2)[0]
        assert np.allclose(m @ m, np.eye(4), atol=TOL)
        assert np.allclose(m, m.conj().T, atol=TOL)


# -- commutation criterion


def test_x_and_z_do_not_commute():
    p = PauliOp(2, (1, 0), (0, 0))
    q = PauliOp(2, (0, 0), (1, 0))
    assert not pauli.commutes(p, q, W32)
    assert pauli.commutes(p, p, W32)


def test_commutes_matches_matrix_oracle_exhaustive_w32():
    spec = FieldSpec(2)
    reps = nonidentity_reps(W32)
    mats = pauli.pauli_matrices(reps, spec)
    for (i, p), (j, q) in itertools.combinations(enumerate(reps), 2):
        matrix_commute = commutator_norm(mats[i], mats[j]) < TOL
        assert pauli.commutes(p, q, W32) == matrix_commute


def test_commutes_matches_matrix_oracle_sampled_w33():
    spec = FieldSpec(3)
    reps = nonidentity_reps(W33)
    rng = random.Random(13)
    for _ in range(300):
        p, q = rng.choice(reps), rng.choice(reps)
        m1 = pauli.pauli_matrices([p], spec)[0]
        m2 = pauli.pauli_matrices([q], spec)[0]
        assert pauli.commutes(p, q, W33) == (commutator_norm(m1, m2) < TOL)


def test_commutes_rejects_foreign_space():
    p = PauliOp(2, (1,), (0,))
    with pytest.raises(DimensionMismatch):
        pauli.commutes(p, p, W32)


# -- classes and the bijection with generators


def test_class_sizes():
    c = class_from_generator(W32.generators[0], W32)
    assert len(c.ops) == 3
    c3 = class_from_generator(W33.generators[0], W33)
    assert len(c3.ops) == 8


def test_class_ops_commute_as_matrices():
    spec = FieldSpec(3)
    c = class_from_generator(W33.generators[7], W33)
    mats = pauli.pauli_matrices(c.ops, spec)
    for m1, m2 in itertools.combinations(mats, 2):
        assert commutator_norm(m1, m2) < TOL


def test_class_is_hilbert_schmidt_orthogonal():
    spec = FieldSpec(2)
    for g in W32.generators:
        c = class_from_generator(g, W32)
        mats = pauli.pauli_matrices(c.ops, spec)
        for m1, m2 in itertools.combinations(mats, 2):
            assert abs(np.trace(m1 @ m2.conj().T)) < TOL


def test_class_closure_modulo_center():
    # Products of class members stay in the class modulo scalars: the
    # symplectic image of a product is the sum of images.
    for g in (W33.generators[0], W52.generators[11]):
        space = W33 if g is W33.generators[0] else W52
        c = class_from_generator(g, space)
        images = {op.symplectic_image() for op in c.ops}
        images.add((0,) * space.dim)
        for u, v in itertools.combinations(images, 2):
            s = tuple((x + y) % space.d for x, y in zip(u, v))
            assert s in images


# sha256 of repr(...) of every generator's class images, in catalog order,
# recorded from the span enumeration that first built the classes.
CLASS_IMAGE_PINS = {
    (2, 2): "a7deaec4e13e423644422c8fcf3b3319d324e0ce43cf1eef0efb54a9f084e632",
    (3, 2): "7fe88a3267dafa47047a7606eb5c52b7844fef53b31094e3b16aa29643ff2b52",
    (2, 3): "d54bf5ca630d4762b0eb3a1d88fa2ff55a181e498d4e8156cb2361a310acb9da",
    (5, 2): "6d6cf3806fe1907785a4601f38268e9c76063234ab5b6f359f76e10d9b23c2c4",
}


@pytest.mark.parametrize("d, n", sorted(CLASS_IMAGE_PINS))
def test_class_images_are_pinned(d, n):
    space = PolarSpace(d, n)
    images = [
        tuple(op.symplectic_image() for op in class_from_generator(g, space).ops)
        for g in space.generators
    ]
    digest = hashlib.sha256(repr(images).encode()).hexdigest()
    assert digest == CLASS_IMAGE_PINS[d, n]


@pytest.mark.parametrize(
    "d, n", [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4), (7, 2)],
    ids=["W_3(2)", "W_3(3)", "W_5(2)", "W_3(5)", "W_7(2)", "W_3(7)"],
)
def test_classes_match_the_span_builder(d, n):
    # W_3(7) has d^N = 49, beyond the dense limit: classes stay symbolic there.
    space = PolarSpace(d, n)
    for g in space.generators:
        assert class_from_generator(g, space) == oracles.class_from_generator(g, space)


def test_round_trip_all_generators():
    for space in (W32, W52, PolarSpace(7, 2)):
        for g in space.generators:
            c = class_from_generator(g, space)
            assert generator_from_class(c, space).gen_index == g.gen_index


def test_disjoint_generators_give_disjoint_classes():
    # Classes are mutually disjoint exactly when their generators are:
    # shared points carry shared operators.
    s = spread.construct_symplectic_spread(W32)
    seen = set()
    for idx in s.members:
        ops = set(class_from_generator(W32.generator(idx), W32).ops)
        assert not ops & seen
        seen |= ops
    assert len(seen) == 15
    meeting = next(
        g for g in W32.generators[1:]
        if g.point_mask & W32.generators[0].point_mask
    )
    c0 = set(class_from_generator(W32.generators[0], W32).ops)
    c1 = set(class_from_generator(meeting, W32).ops)
    assert len(c0 & c1) == 1


@pytest.mark.parametrize("space", [W33, W52, W35], ids=["W_3(3)", "W_5(2)", "W_3(5)"])
def test_classes_through_a_shared_point_hold_the_same_operators(space):
    # Each shared point carries d - 1 operators, and they are one set of
    # objects, built once, not equal copies.
    first = class_from_generator(space.generators[0], space)
    by_image = {op.symplectic_image(): op for op in first.ops}
    meeting = 0
    for g in space.generators[1:]:
        shared = (g.point_mask & space.generators[0].point_mask).bit_count()
        meeting += shared > 0
        ops = [op for op in class_from_generator(g, space).ops if op.symplectic_image() in by_image]
        assert len(ops) == shared * (space.d - 1)
        assert all(op is by_image[op.symplectic_image()] for op in ops)
    assert meeting > 0


def test_generator_from_class_rejects_corruption():
    c = class_from_generator(W32.generators[0], W32)
    bad_op = next(
        op
        for op in class_from_generator(W32.generators[1], W32).ops
        if not pauli.commutes(op, c.ops[0], W32)
    )
    corrupted = pauli.CommutingClass(2, c.ops[:-1] + (bad_op,), 0)
    with pytest.raises(NotAClass):
        generator_from_class(corrupted, W32)


@pytest.mark.parametrize("space", [W32, W33])
def test_generator_from_class_rejects_the_identity(space):
    # The zero image spans nothing and differs from every member's image, so
    # the count and rank checks alone take it for the member it replaces.
    d, n = space.d, space.n
    c = class_from_generator(space.generators[0], space)
    identity = pauli.PauliOp(d, (0,) * n, (0,) * n)
    with pytest.raises(NotAClass, match="identity"):
        generator_from_class(pauli.CommutingClass(d, c.ops[:-1] + (identity,), 0), space)



def test_class_from_generator_refuses_another_space_s_generator():
    # Generator 5 of W_3(3) is outside W_3(2)'s 15-entry catalog, and
    # generator 3 of W_3(2) is not generator 3 of W_5(2).
    with pytest.raises(DimensionMismatch):
        class_from_generator(PolarSpace(3, 2).generators[5], PolarSpace(2, 2))
    with pytest.raises(DimensionMismatch):
        class_from_generator(PolarSpace(2, 2).generators[3], PolarSpace(2, 3))


@pytest.mark.parametrize("source, target", [(W32, W52), (W52, W32), (W32, W33), (W33, W32)])
def test_generator_from_class_refuses_another_space_s_class(source, target):
    # Ops of another d or N are no class of this space, whatever their span.
    c = class_from_generator(source.generators[0], source)
    with pytest.raises(DimensionMismatch):
        generator_from_class(c, target)

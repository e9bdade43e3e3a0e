"""Tests for the symplectic polar space machinery.

The small spaces here are fully enumerable, so most checks are exhaustive
rather than sampled: the brute-force side is the oracle.
"""

import functools
import hashlib
import itertools
import json
import math
import operator
import random

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarmub import algebra, polar
from polarmub.errors import (
    CatalogMismatch,
    DimensionMismatch,
    NotDisjoint,
    NotRankTwo,
    ScaleExceeded,
)
from polarmub.polar import PolarSpace

from oracles import line_mask


W32 = PolarSpace(2, 2)
W33 = PolarSpace(3, 2)
W52 = PolarSpace(2, 3)


def is_isotropic(space, basis):
    return all(
        space.symp_form(u, v) == 0 for u, v in itertools.combinations(basis, 2)
    )


# -- points and the form


def test_point_counts():
    assert W32.num_points == 15
    assert W33.num_points == 40
    assert W52.num_points == 63
    assert PolarSpace(5, 2).num_points == 156


def test_symp_form_first_summand():
    e0 = (1, 0, 0, 0)
    e1 = (0, 1, 0, 0)
    assert W32.symp_form(e0, e1) == 1


def test_symp_form_alternating_and_bilinear():
    rng = random.Random(3)
    for _ in range(50):
        u = tuple(rng.randrange(3) for _ in range(4))
        v = tuple(rng.randrange(3) for _ in range(4))
        w = tuple(rng.randrange(3) for _ in range(4))
        assert W33.symp_form(u, u) == 0
        assert (W33.symp_form(u, v) + W33.symp_form(v, u)) % 3 == 0
        uv = tuple((a + b) % 3 for a, b in zip(u, v))
        assert W33.symp_form(uv, w) == (
            W33.symp_form(u, w) + W33.symp_form(v, w)
        ) % 3


def test_symp_form_derived_value():
    assert W33.symp_form((1, 1, 0, 1), (0, 1, 1, 0)) == 0


def test_symp_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        W32.symp_form((1, 0), (0, 1))


def test_form_matrix_is_nondegenerate():
    for space in (W32, W33):
        assert len(algebra.rref(space.form, space.field)) == space.dim


# -- incidence layer, against rref membership and the form


def _line_oracle(space, i, j):
    line = algebra.rref((space.points[i], space.points[j]), space.field)
    mask = 0
    for p, v in enumerate(space.points):
        if algebra.rref(line + (v,), space.field) == line:
            mask |= 1 << p
    return mask


def test_line_mask_matches_rref_membership():
    pairs = [(W32, i, j) for i, j in itertools.permutations(range(15), 2)]
    rng = random.Random(5)
    for space in (W33, W52):
        for _ in range(60):
            i, j = rng.sample(range(space.num_points), 2)
            pairs.append((space, i, j))
    for space, i, j in pairs:
        mask = line_mask(space, i, j)
        assert mask == _line_oracle(space, i, j)
        assert bin(mask).count("1") == space.d + 1


def test_perp_masks_match_form():
    masks = W33.perp_masks
    assert len(masks) == W33.num_points
    for i, u in enumerate(W33.points):
        for j, v in enumerate(W33.points):
            assert ((masks[i] >> j) & 1) == (W33.symp_form(u, v) == 0)


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3)])
def test_index_of_matches_brute_force_normalisation(d, n):
    space = PolarSpace(d, n)
    assert len(space.index_of) == d ** (2 * n)
    assert space.index_of[0] == -1
    for code, v in enumerate(itertools.product(range(d), repeat=2 * n)):
        if any(v):
            inv = pow(next(t for t in v if t), -1, d)
            point = tuple(t * inv % d for t in v)
            assert space.index_of[code] == space.points.index(point)
    assert space.coords.tolist() == [list(v) for v in space.points]


def test_point_indices_walks_set_bits():
    assert W32.point_indices(0) == []
    assert W32.point_indices(0b100101) == [0, 2, 5]
    assert W52.point_indices(1 << 62 | 1) == [0, 62]


# -- generator catalog


def test_generator_counts():
    assert W32.num_generators == 15
    assert W33.num_generators == 40
    assert W52.num_generators == 135


def test_generators_are_maximal_isotropic_with_full_masks():
    for space in (W32, W33, W52):
        per_gen = (space.d**space.n - 1) // (space.d - 1)
        for g in space.generators:
            assert len(g.basis) == space.n
            assert is_isotropic(space, g.basis)
            assert bin(g.point_mask).count("1") == per_gen
            assert algebra.rref(g.basis, space.field) == g.basis


# sha256 over "index|basis|mask" lines in catalog order: any rewrite of the
# catalog must reproduce indices, bases and masks bit for bit.
CATALOG_DIGESTS = {
    (2, 2): "d20749f98951558f7f98e1d09437c47791c4339f7bcc010e7055c7a1c9123d7b",
    (3, 2): "77ef0aa83f48eaa40b3110fbfb8a480b84512e93d469908a8328fbf183626149",
    (2, 3): "8e2c3f2235b68059bba58927c4f780b162a2aa908de202df29b3f6e3e4a66b72",
    (5, 2): "a925d91fcc6dc400f3d19c89cee646546b0040ec5757487646cc3011be3b9152",
    (2, 4): "2b55a46a11623aeed22912e6ddcdd61c04cea2963ee64ab796ee9be2040a8894",
    (3, 3): "a616d6f7da5a936d0bd73a9cc705ff16eb1f092a60b1c68e548ac579ec16d0a4",
    (7, 2): "1c5f36a14d82af1b624e1b2d1fd54c692c0be46ee03e35ea9886f6eaa8116cf8",
    (11, 2): "3cfa82463eb7c3c6f78ef497a5cae3ee8f001d027ccf4267de2872de78a0d7af",
    (13, 2): "edca4a36f832c102d39ef0bc281b390932c3dec1264fa912d78b73e6617073f3",
}


@pytest.mark.parametrize("d,n", sorted(CATALOG_DIGESTS))
def test_catalog_is_pinned(d, n):
    space = PolarSpace(d, n)
    per_gen = (d**n - 1) // (d - 1)
    h = hashlib.sha256()
    for i, g in enumerate(space.generators):
        assert g.gen_index == i
        assert len(g.basis) == n
        assert algebra.rref(g.basis, space.field) == g.basis
        assert is_isotropic(space, g.basis)
        assert bin(g.point_mask).count("1") == per_gen
        for row in g.basis:
            assert g.point_mask >> int(space.index_of[np.array(row) @ space.weights]) & 1
        h.update(f"{g.gen_index}|{g.basis}|{g.point_mask}\n".encode())
    assert space.num_generators == polar.generator_count(d, n)
    assert h.hexdigest() == CATALOG_DIGESTS[(d, n)]


# The catalog search keeps x as the next greedy basis point after a prefix
# with span S exactly when x is 0 at the leading coordinate of every basis
# point.  These tests check that rule against spans grown from line masks.


def _greedy_children(space, basis, span):
    """Check the rule at every x in S^⊥ \\ S; return the extended prefixes."""
    leads = [next(c for c, t in enumerate(space.points[b]) if t) for b in basis]
    common = functools.reduce(operator.and_, (space.perp_masks[b] for b in basis))
    children = []
    for x in space.point_indices(common & ~span):
        vanishes = all(space.points[x][c] == 0 for c in leads)
        barred = ((1 << x) - 1) & ~span
        grown = span | 1 << x
        for s in space.point_indices(span):
            grown |= line_mask(space, s, x)
            if grown & barred:
                break
        assert vanishes == (not grown & barred), (basis, x)
        if vanishes and x > basis[-1]:
            children.append((basis + [x], grown))
    return children


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3)])
def test_greedy_basis_rule_on_every_prefix(d, n):
    space = PolarSpace(d, n)
    stack = [([p], 1 << p) for p in range(space.num_points)]
    generators = 0
    while stack:
        basis, span = stack.pop()
        if len(basis) == n:
            generators += 1
        else:
            stack.extend(_greedy_children(space, basis, span))
    assert generators == polar.generator_count(d, n)


def test_greedy_basis_rule_on_sampled_prefixes():
    space = PolarSpace(2, 4)
    rng = random.Random(19)
    for _ in range(200):
        p = rng.randrange(space.num_points)
        prefix = ([p], 1 << p)
        while len(prefix[0]) < space.n:
            children = _greedy_children(space, *prefix)
            if not children:
                break
            prefix = rng.choice(children)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3)])
def test_disjoint_adjacency_matches_pairwise_and(d, n):
    space = PolarSpace(d, n)
    masks = [g.point_mask for g in space.generators]
    pairwise = [sum(1 << j for j, h in enumerate(masks) if not g & h) for g in masks]
    assert space.disjoint_adjacency == pairwise


@pytest.mark.parametrize("index", [-1, -15, 15, 16])
def test_generator_index_outside_the_catalog_is_refused(index):
    # A negative index would otherwise alias the generator counted from the end.
    with pytest.raises(ValueError, match="outside"):
        W32.generator(index)


def test_generator_accepts_integers_and_its_own_entries():
    g = W32.generators[7]
    copy = polar.Generator(7, g.basis, g.point_mask)
    for ref in (7, np.int64(7), np.int32(7), np.uint8(7), g, copy):
        assert W32.generator(ref) is g


@pytest.mark.parametrize("ref", [True, False, 2.0, 1.7, "3", None, np.float64(2), (1,)])
def test_generator_refuses_references_that_are_not_integers(ref):
    # int() would read 1.7 as generator 1 and True as generator 1.
    with pytest.raises(TypeError, match="must be an integer index or a Generator"):
        W32.generator(ref)


def test_generator_refuses_entries_of_another_catalog():
    W35 = PolarSpace(5, 2)
    g = W32.generators[3]
    refs = [
        W35.generators[100],  # past the end of W_3(2)'s catalog
        W35.generators[3],  # in range, another space's line
        W33.generators[3],  # same ambient dimension, another field
        W52.generators[3],  # another rank
        polar.Generator(3, g.basis, g.point_mask ^ 1),
        polar.Generator(4, g.basis, g.point_mask),
    ]
    for ref in refs:
        with pytest.raises(DimensionMismatch, match="is not generator"):
            W32.generator(ref)


def test_generator_by_basis_refuses_rows_that_span_no_generator():
    space = PolarSpace(2, 2)
    for basis in (((1, 0, 0, 0),), ((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 1, 0, 0), (1, 0, 0, 0))):
        with pytest.raises(ValueError, match="do not span a generator of W_3"):
            space.generator_by_basis(basis)
    g = space.generators[5]
    assert space.generator_by_basis(g.basis) is g


@pytest.mark.parametrize(
    "first",
    [
        lambda s: s.generators,
        lambda s: s.generator(3),
        lambda s: s.num_generators,
        lambda s: s.generator_by_basis(((1, 0, 0, 0), (0, 0, 1, 0))),
        lambda s: s.disjoint_adjacency,
    ],
    ids=["generators", "generator", "num_generators", "generator_by_basis", "disjoint_adjacency"],
)
def test_catalog_is_built_once_whichever_read_comes_first(monkeypatch, first):
    built = []
    enumerate_generators = PolarSpace._enumerate_generators

    def counted(self):
        built.append(self)
        return enumerate_generators(self)

    monkeypatch.setattr(PolarSpace, "_enumerate_generators", counted)
    space = PolarSpace(2, 2)
    first(space)
    assert built == [space]
    gens = space.generators
    assert space.generator(3) is gens[3] and space.num_generators == 15
    assert space.generator_by_basis(gens[9].basis) is gens[9]
    assert space.disjoint_adjacency == W32.disjoint_adjacency
    assert built == [space]
    assert gens == W32.generators


def test_generator_order_is_lexicographic():
    bases = [g.basis for g in W33.generators]
    assert bases == sorted(bases)


def test_scale_guard():
    with pytest.raises(ScaleExceeded):
        PolarSpace(2, 6).generators  # ~4.9M generators is over budget


def test_oversized_space_is_refused_before_the_field(monkeypatch):
    # The point count is checked before the field or the d^{2n} candidate
    # points are built, so an oversized space is refused at once.
    def refuse(*args):
        raise AssertionError("FieldSpec built for an oversized space")

    monkeypatch.setattr(polar, "FieldSpec", refuse)
    with pytest.raises(ScaleExceeded):
        PolarSpace(2, 30)


def test_collinear_iff_form_vanishes():
    # Two distinct points lie on a common generator iff F(u, v) = 0.
    for space in (W32, W33):
        on_common = set()
        for g in space.generators:
            pts = space.point_indices(g.point_mask)
            for a, b in itertools.combinations(pts, 2):
                on_common.add((a, b))
        for i, j in itertools.combinations(range(space.num_points), 2):
            expected = space.symp_form(space.points[i], space.points[j]) == 0
            assert ((i, j) in on_common) == expected


# -- perp, as the AND of point perp masks


def perp_of(space, mask):
    out = (1 << space.num_points) - 1
    for i in space.point_indices(mask):
        out &= space.perp_masks[i]
    return out


def test_perp_of_whole_space_is_zero():
    assert perp_of(W32, (1 << W32.num_points) - 1) == 0


def test_perp_of_point_contains_point():
    # x^perp is a hyperplane through x: 7 of the 15 points of PG(3, 2).
    for idx in range(W32.num_points):
        assert bin(W32.perp_masks[idx]).count("1") == 7
        assert W32.perp_masks[idx] >> idx & 1


def test_double_perp_is_identity_on_lines():
    # A generator is its own perp.
    rng = random.Random(17)
    for _ in range(20):
        g = W33.generators[rng.randrange(W33.num_generators)]
        assert perp_of(W33, g.point_mask) == g.point_mask
        assert perp_of(W33, perp_of(W33, g.point_mask)) == g.point_mask


def test_perp_reverses_inclusion():
    for g in W52.generators[:10]:
        x, y = W52.point_indices(g.point_mask)[:2]
        p_line = perp_of(W52, line_mask(W52, x, y))
        p_gen = perp_of(W52, g.point_mask)
        assert p_gen & ~p_line == 0 and p_gen != p_line


def _disjoint_pair(space):
    gens = space.generators
    for g in gens:
        for h in gens:
            if h.gen_index > g.gen_index and not (g.point_mask & h.point_mask):
                return g, h
    raise AssertionError("no disjoint pair found")


# -- generators through a subspace


def test_d_plus_one_generators_contain_each_point_of_w3():
    for space, expect in ((W32, 3), (W33, 4)):
        v = space.points[5]
        through = [g for g in space.generators if g.point_mask >> 5 & 1]
        assert len(through) == expect == space.d + 1
        assert all(is_isotropic(space, g.basis + (v,)) for g in through)


def test_d_plus_one_generators_contain_each_isotropic_line_w52():
    # Every line of a generator, an (N-2)-space of W_5(2), lies in d + 1
    # generators: those whose point mask contains the line's.
    for g in W52.generators[:5]:
        for x, y in itertools.combinations(W52.point_indices(g.point_mask), 2):
            line = line_mask(W52, x, y)
            through = [h for h in W52.generators if h.point_mask & line == line]
            assert len(through) == W52.d + 1


# -- transversals, reguli, antiregularity


def test_common_transversals_of_disjoint_pair():
    for space in (W32, W33):
        g, h = _disjoint_pair(space)
        trans = polar.common_transversals([g, h], space)
        assert len(trans) == space.d + 1
        for a, b in itertools.combinations(trans, 2):
            assert not (a.point_mask & b.point_mask)


def test_double_perp_back_to_pair_odd_order():
    g, h = _disjoint_pair(W33)
    inner = polar.common_transversals([g, h], W33)
    outer = polar.common_transversals(inner, W33)
    assert {t.gen_index for t in outer} == {g.gen_index, h.gen_index}


def test_double_perp_size_values():
    g, h = _disjoint_pair(W32)
    assert polar.double_perp_size(g, h, W32) == 3
    g, h = _disjoint_pair(W33)
    assert polar.double_perp_size(g, h, W33) == 2


def test_grid_meets_every_line_of_w32():
    # The 9 points of a (3x3)-grid meet every one of the 15 lines.
    g, h = _disjoint_pair(W32)
    regulus = polar.common_transversals([g, h], W32)
    grid_mask = 0
    for t in regulus:
        grid_mask |= t.point_mask
    assert bin(grid_mask).count("1") == 9
    for line in W32.generators:
        assert line.point_mask & grid_mask


def test_transversals_require_rank_two():
    with pytest.raises(NotRankTwo):
        polar.common_transversals([W52.generators[0]], W52)


def test_transversals_require_disjoint_input():
    g = W32.generators[0]
    meeting = next(
        h
        for h in W32.generators
        if h.gen_index != g.gen_index and h.point_mask & g.point_mask
    )
    with pytest.raises(NotDisjoint):
        polar.common_transversals([g, meeting], W32)


def test_gq_projection_property():
    # Unique line on x meeting X, for every non-incident point-line pair.
    for space in (W32, W33):
        for X in space.generators:
            for idx in range(space.num_points):
                if (X.point_mask >> idx) & 1:
                    continue
                on_x = [
                    g
                    for g in space.generators
                    if (g.point_mask >> idx) & 1 and g.point_mask & X.point_mask
                ]
                assert len(on_x) == 1


def preserves_disjointness(space, perm):
    """perm is a permutation of generator indices, and i, j are disjoint
    exactly when perm[i], perm[j] are."""
    adj = space.disjoint_adjacency
    if sorted(perm) != list(range(len(adj))):
        return False
    return all(
        sum(1 << perm[j] for j in range(len(adj)) if adj[i] >> j & 1) == adj[perm[i]]
        for i in range(len(adj))
    )


def closed_form_psp_order(d, n):
    # |Sp(2N, d)| = d^{N²} ∏(d^{2i} − 1); −I fixes every generator, so the
    # action on generators has that order over |{±I}|.
    return d ** (n * n) * math.prod(d ** (2 * i) - 1 for i in range(1, n + 1)) // math.gcd(2, d - 1)


def fixed_transvections(space, sums=True):
    """The transvection permutations at e_c and, if sums, at e_c + e_{c+1},
    each point found by its coordinates."""
    m = space.dim
    units = [tuple(int(i == c) for i in range(m)) for c in range(m)]
    points = units + [tuple(int(i in (c, c + 1)) for i in range(m)) for c in range(m - 1)]
    perms = polar.transvections(space)
    return [perms[space.points.index(v)] for v in points[: len(points) if sums else m]]


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_symplectic_generators_are_the_fixed_transvections(d, n):
    space = PolarSpace(d, n)
    assert polar.symplectic_generators(space) == fixed_transvections(space)
    assert len(fixed_transvections(space)) == 4 * n - 1


def test_symplectic_group_order():
    # The certified order is the number of elements the closure enumerates.
    group = oracles.symplectic_group(W32)
    assert len(set(group)) == len(group) == closed_form_psp_order(2, 2) == 720
    assert polar.symplectic_group_order(W32) == len(group)
    assert tuple(range(W32.num_generators)) in group
    assert all(preserves_disjointness(W32, p) for p in group)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_symplectic_group_order_is_the_closed_form(d, n):
    assert polar.symplectic_group_order(PolarSpace(d, n)) == closed_form_psp_order(d, n)


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3)])
def test_symplectic_group_order_matches_sympy(d, n):
    from sympy.combinatorics import Permutation, PermutationGroup

    space = PolarSpace(d, n)
    group = PermutationGroup([Permutation(list(p)) for p in fixed_transvections(space)])
    assert polar.symplectic_group_order(space) == group.order()


def test_unit_transvections_alone_generate_36_elements():
    # The 2N transvections at e_c alone fall short of PSp(4, 2), so the
    # comparison with the closed form can fail.
    assert polar._schreier_sims_order(fixed_transvections(W32, sums=False)) == 36


def test_symplectic_group_order_refuses_a_set_that_does_not_generate(monkeypatch):
    real = polar.transvections(W32)
    units = set(fixed_transvections(W32, sums=False))
    identity = tuple(range(W32.num_generators))
    monkeypatch.setattr(
        polar, "transvections", lambda space: tuple(p if p in units else identity for p in real)
    )
    with pytest.raises(CatalogMismatch, match="generate 36 elements, not .* 720"):
        polar.symplectic_group_order(W32)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=3)
))
def test_schreier_sims_matches_sympy_on_small_groups(perms):
    from sympy.combinatorics import Permutation, PermutationGroup

    group = PermutationGroup([Permutation(p) for p in perms])
    assert polar._schreier_sims_order(perms) == group.order()


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3)])
def test_transvections_preserve_disjointness(d, n):
    space = PolarSpace(d, n)
    perms = polar.transvections(space)
    assert len(perms) == space.num_points
    assert all(preserves_disjointness(space, p) for p in perms)


# sha256 of the JSON list of transvection permutations of generator indices,
# one per point v in point order.  The values were taken from the matrices
# I + cᵀv acting on row vectors, so a rewrite must match them bit for bit.
TRANSVECTION_DIGESTS = {
    (2, 2): "ef8482f5205b57f76f35820cda20fce0f3d093682f25629bceea409d5764dafb",
    (3, 2): "d52705a9803f3bac337783669e609ae676d73db3df5db6ddcb6ebc68a8ba7c25",
    (2, 3): "aac1b6fcf4475076d19b896c3d90a9f8b189ee7dbc1df3f7b26ed6986f5a9360",
    (5, 2): "d0135ed81a79825bb4e4974d185561eb183d05e3ff17a843f0c1dfcb41c9b77a",
    (7, 2): "1c36cb82a55f57649e8c5c7597e418e09a2d42823ff99f8aaf2d559f58dcdc11",
    (2, 4): "c26d9321e1a6559aa76f2bd55cab2c1360698b4c818472b4bf20c36c7478cf40",
}


@pytest.mark.parametrize("d,n", sorted(TRANSVECTION_DIGESTS))
def test_transvection_permutations_pinned(d, n):
    space = PolarSpace(d, n)
    perms = [list(p) for p in polar.transvections(space)]
    assert len(perms) == space.num_points
    digest = hashlib.sha256(json.dumps(perms).encode()).hexdigest()
    assert digest == TRANSVECTION_DIGESTS[(d, n)]

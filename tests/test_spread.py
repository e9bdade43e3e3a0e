"""Tests for partial-spread constructions, search, and classification.

Frozen expected values (orbit counts, census sizes, completion sizes) were
computed by the exhaustive enumeration oracles in this file and cross-checked
against the closed-form counts where those exist.
"""

import ast
import gc
import itertools
import pathlib
import random
import types

import pytest

from polarmub import algebra, polar, spread
from polarmub.errors import (
    AmbiguousPartner,
    BadK,
    GeneratorInSpread,
    NoPartner,
    NoSuitableChi,
    NotASpread,
    NotDisjoint,
    NotUnextendibleTriple,
    ScaleExceeded,
)
from polarmub.polar import PolarSpace

W32 = PolarSpace(2, 2)
W33 = PolarSpace(3, 2)
W52 = PolarSpace(2, 3)

S32 = spread.construct_symplectic_spread(W32)
S33 = spread.construct_symplectic_spread(W33)
S52 = spread.construct_symplectic_spread(W52)


def full_mask(space):
    return (1 << space.num_points) - 1


# -- containers


def test_partial_spread_rejects_meeting_lines():
    g = W32.generators[0]
    meeting = next(
        h for h in W32.generators[1:] if h.point_mask & g.point_mask
    )
    with pytest.raises(NotDisjoint):
        spread.partial_spread(W32, [g.gen_index, meeting.gen_index])


def test_classical_spread_sizes_and_coverage():
    for space, s in ((W32, S32), (W33, S33), (W52, S52)):
        assert s.size == space.d**space.n + 1
        assert s.coverage == full_mask(space)
        assert s.is_spread
    w35 = PolarSpace(5, 2)
    s35 = spread.construct_symplectic_spread(w35)
    assert s35.size == 26 and s35.coverage == full_mask(w35)


# -- completeness and coverage


def test_spread_is_complete():
    cert = spread.is_complete(S32)
    assert cert.complete and cert.witness is None


def test_two_lines_are_incomplete_with_valid_witness():
    ps = spread.partial_spread(W32, S32.members[:2])
    assert bin(ps.coverage).count("1") == 6
    cert = spread.is_complete(ps)
    assert not cert.complete
    witness = W32.generator(cert.witness)
    assert not witness.point_mask & ps.coverage
    lower = [g for g in W32.generators if not g.point_mask & ps.coverage]
    assert lower[0].gen_index == cert.witness  # lowest index wins


def test_covered_generators_of_spread_triples():
    # Three members of any spread of W_3(2) cover exactly one further line.
    for s in spread.search_maximal(W32, "exhaustive"):
        if s.size != 5:
            continue
        for subset in itertools.combinations(s.members, 3):
            sub = spread.partial_spread(W32, subset)
            covered = spread.covered_generators(sub)
            assert len(covered) == 1


def test_covered_generators_w52_five_subset():
    subset = spread.partial_spread(W52, S52.members[:5])
    # not every 5-subset covers a generator in general, but the canonical
    # first one of the classical spread does, and exactly one
    covered = spread.covered_generators(subset)
    assert len(covered) == 1


def test_single_generator_covers_nothing_else():
    ps = spread.partial_spread(W33, [0])
    assert spread.covered_generators(ps) == []


def test_offspread_line_meets_exactly_d_plus_one_members():
    for space, s in ((W32, S32), (W33, S33)):
        for g in space.generators:
            if g.gen_index in s.members:
                continue
            assert len(spread.members_meeting(s, g)) == space.d + 1


# -- regularity


def test_classical_spreads_are_regular():
    assert spread.check_regularity(S33) is True
    assert spread.check_regularity(S32) is True  # vacuous in order 2
    assert spread.check_regularity(spread.construct_symplectic_spread(PolarSpace(5, 2)))


def test_regular_triples_have_d_plus_one_transversals():
    # Three members of a regular spread have d + 1 ambient transversal
    # lines, one through each point of the first member.
    rng = random.Random(9)
    for space in (W33, PolarSpace(5, 2)):
        s = spread.construct_symplectic_spread(space)
        for _ in range(10):
            a, b, c = (space.generator(m).point_mask for m in rng.sample(s.members, 3))
            lines = [
                line
                for x in space.point_indices(a)
                for y in space.point_indices(b)
                if (line := space.line_mask(x, y)) & c
            ]
            assert len(lines) == space.d + 1
            assert sorted(
                space.point_indices(line & a)[0] for line in lines
            ) == space.point_indices(a)


def test_regularity_requires_spread():
    with pytest.raises(NotASpread):
        spread.check_regularity(spread.partial_spread(W33, S33.members[:4]))


# -- T(U) and its completion


@pytest.mark.parametrize(
    "d,expected_tu",
    [(2, 3), (3, 7), (5, 21)],
)
def test_construct_TU_size(d, expected_tu):
    space = PolarSpace(d, 2)
    s = spread.construct_symplectic_spread(space)
    u = next(g for g in space.generators if g.gen_index not in s.members)
    tu = spread.construct_TU(s, u)
    assert tu.size == expected_tu == d * d - d + 1
    assert u.gen_index in tu.members


def test_construct_TU_rejects_member():
    with pytest.raises(GeneratorInSpread):
        spread.construct_TU(S33, S33.members[0])


def test_complete_TU_order_two_all_choices():
    # In order 2 the cut triple is already complete: size 3 for every U.
    for g in W32.generators:
        if g.gen_index in S32.members:
            continue
        final, cert = spread.complete_TU(spread.construct_TU(S32, g))
        assert cert.complete
        assert final.size == 3


def test_complete_TU_order_three_all_choices():
    # In odd order the partner line always extends the cut: size 8 for
    # every U, certified complete.
    for g in W33.generators:
        if g.gen_index in S33.members:
            continue
        tu = spread.construct_TU(S33, g)
        final, cert = spread.complete_TU(tu)
        assert cert.complete
        assert final.size == 8
        assert final.size - tu.size <= 1  # at most one line was added


def test_complete_TU_order_five_spot():
    space = PolarSpace(5, 2)
    s = spread.construct_symplectic_spread(space)
    for g in space.generators[:40]:
        if g.gen_index in s.members:
            continue
        final, cert = spread.complete_TU(spread.construct_TU(s, g))
        assert cert.complete
        assert final.size in (21, 22)


# -- partner lines


def test_pair_partner_w33():
    for x in W33.generators:
        if x.gen_index in S33.members:
            continue
        y = spread.pair_partner(S33, x)
        assert y.gen_index != x.gen_index
        assert spread.members_meeting(S33, y) == spread.members_meeting(S33, x)
        # the partner map is an involution
        back = spread.pair_partner(S33, y)
        assert back.gen_index == x.gen_index
        # and the partner is the line that completes T(x)
        tu = spread.construct_TU(S33, x)
        final, _ = spread.complete_TU(tu)
        assert set(final.members) - set(tu.members) == {y.gen_index}


def test_pair_partner_w35_spot():
    space = PolarSpace(5, 2)
    s = spread.construct_symplectic_spread(space)
    checked = 0
    for x in space.generators:
        if x.gen_index in s.members:
            continue
        y = spread.pair_partner(s, x)
        assert spread.members_meeting(s, y) == spread.members_meeting(s, x)
        checked += 1
        if checked == 5:
            break


def test_pair_partner_fails_in_even_order():
    x = next(g for g in W32.generators if g.gen_index not in S32.members)
    with pytest.raises((NoPartner, AmbiguousPartner)):
        spread.pair_partner(S32, x)


# -- transversal blocks and the block swap


@pytest.mark.parametrize("d", [3, 5])
def test_transversal_block_structure(d):
    # Exhaustive over every member pair {L, M} of the classical spread.
    space = PolarSpace(d, 2)
    s = spread.construct_symplectic_spread(space)
    for l_idx, m_idx in itertools.combinations(s.members, 2):
        blocks = spread.transversal_blocks(s, l_idx, m_idx)
        assert len(blocks) == (d + 1) // 2
        seen_lines = set()
        for key, pair in blocks:
            assert len(pair) == 2 and pair[0] != pair[1]  # fixed-point-free
            assert len(key) == d + 1
            assert {l_idx, m_idx} <= key
            seen_lines |= set(pair)
        assert len(seen_lines) == d + 1
        for (k1, _), (k2, _) in itertools.combinations(blocks, 2):
            assert k1 & k2 == {l_idx, m_idx}


@pytest.mark.parametrize(
    "d,k,expected_size",
    [(3, 0, 8), (5, 0, 22), (5, 1, 20)],
)
def test_construct_SR_sizes_and_completeness(d, k, expected_size):
    # The literal set arithmetic of the block swap: |S| - [(k+1)(d+1) - 2k]
    # members removed, 2(k+1) transversal lines added, hence size
    # d^2 - (k+1)d + (3k+2); certified complete by catalog scan.
    space = PolarSpace(d, 2)
    s = spread.construct_symplectic_spread(space)
    sr = spread.construct_SR(s, s.members[0], s.members[1], k)
    assert sr.size == expected_size == d * d - (k + 1) * d + (3 * k + 2)
    assert spread.is_complete(sr).complete


def test_construct_SR_rejects_bad_k():
    with pytest.raises(BadK):
        spread.construct_SR(S33, S33.members[0], S33.members[1], 1)
    with pytest.raises(BadK):
        spread.construct_SR(S33, S33.members[0], S33.members[1], -1)


def test_construct_SR_rejects_even_order():
    with pytest.raises(BadK):
        spread.construct_SR(S32, S32.members[0], S32.members[1], 0)


def test_construct_SR_rejects_non_members():
    outsider = next(
        g.gen_index for g in W33.generators if g.gen_index not in S33.members
    )
    with pytest.raises(GeneratorInSpread):
        spread.construct_SR(S33, outsider, S33.members[1], 0)


# -- U-sets


def test_uset_w33():
    u = spread.construct_U_set(S33)
    chi = W33.generator(u.carrier)
    assert u.carrier not in u.members.members
    for m in u.members.members:
        assert W33.generator(m).point_mask & chi.point_mask
    assert chi.point_mask & u.members.coverage == chi.point_mask


def test_uset_rejects_member_carrier():
    with pytest.raises(NoSuitableChi):
        spread.construct_U_set(S33, S33.members[0])


def test_unextendible_from_uset_w33():
    u = spread.construct_U_set(S33)
    final, cert = spread.unextendible_from_Uset(S33, u)
    assert cert.complete
    assert not final.is_spread
    assert final.size < 10
    assert u.carrier in final.members


def test_unextendible_from_uset_w52_size():
    u = spread.construct_U_set(S52)
    final, cert = spread.unextendible_from_Uset(S52, u)
    assert cert.complete
    assert not final.is_spread
    assert final.size == 2**3 - 2**2 + 1 == 5


# -- exhaustive search


def test_search_w32_census():
    res = spread.search_maximal(W32, "exhaustive")
    sizes = sorted(p.size for p in res)
    assert sizes.count(3) == 20
    assert sizes.count(5) == 6
    assert len(res) == 26
    assert all(spread.is_complete(p).complete for p in res)


def test_search_w33_census():
    res = spread.search_maximal(W33, "exhaustive")
    by_size = {}
    for p in res:
        by_size[p.size] = by_size.get(p.size, 0) + 1
    assert by_size == {5: 432, 8: 135, 10: 36}
    # Galois bound: complete non-spreads never exceed s^2 - 1
    assert max(sz for sz in by_size if sz != 10) == 8 == 3**2 - 1


def test_search_deterministic_order():
    res1 = spread.search_maximal(W32, "exhaustive")
    res2 = spread.search_maximal(W32, "exhaustive")
    assert [p.members for p in res1] == [p.members for p in res2]
    members = [p.members for p in res1]
    assert members == sorted(members)


def test_search_first_of_size():
    found = spread.search_maximal(W33, "first_of_size", size=8)
    assert len(found) == 1
    assert found[0].size == 8
    assert spread.is_complete(found[0]).complete
    assert spread.search_maximal(W32, "first_of_size", size=4) == []


@pytest.mark.parametrize(
    "mode, size",
    [("exhaustive", 5), ("first_of_size", None), ("first_of_size", 0), ("first_of_size", -2)],
)
def test_search_rejects_a_size_it_cannot_answer(mode, size):
    with pytest.raises(ValueError):
        spread.search_maximal(W32, mode, size=size)


def test_is_spread_rejects_inconsistent_coverage():
    with pytest.raises(NotDisjoint):
        spread.PartialSpread(W32, S32.members, 0).is_spread


def test_package_has_no_assert():
    # python -O strips asserts; certificate checks must be typed raises.
    found = [
        (path.name, node.lineno)
        for path in sorted(pathlib.Path(spread.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found


# Public names that nothing in the package or the benchmark calls, each kept
# for the reason its docstring states.
UNCALLED_KEPT = {
    "commutes": "acceptance 1",
    "repartition_triple": "acceptance 4",
    "double_perp_size": "acceptance 9",
    "pair_partner": "README T(U) result",
    "asymptotic_gate": "README inequality result",
}


def test_package_has_no_uncalled_public_names():
    package = pathlib.Path(spread.__file__).parent
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    defined = {}
    used = set()
    for path in sorted(package.glob("*.py")) + sorted(perfbench.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and path.parent == package:
                own = stmt.name
                defined[own] = ast.get_docstring(stmt) or ""
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name and name != own:
                    used.add(name)
    uncalled = {n for n in defined if not n.startswith("_") and n not in used}
    assert sorted(uncalled - set(UNCALLED_KEPT)) == []
    for name, reason in UNCALLED_KEPT.items():
        assert reason in " ".join(defined[name].split()), name


def test_search_and_catalog_leave_no_closure_cycles():
    # A recursive closure that refers to itself keeps its result list alive
    # until the cyclic collector runs; DEBUG_SAVEALL keeps what it frees.
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        spread.search_maximal(PolarSpace(3, 2), "exhaustive")
        PolarSpace(2, 2).generators
        gc.collect()
        names = {o.__name__ for o in gc.garbage if isinstance(o, types.FunctionType)}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not names & {"dfs", "grow"}


def test_search_scale_guard():
    with pytest.raises(ScaleExceeded):
        spread.search_maximal(PolarSpace(5, 2), "exhaustive")


# -- isomorphism classification


CENSUS32 = spread.search_maximal(W32, "exhaustive")


def test_classify_triples_single_orbit():
    triples = [p for p in CENSUS32 if p.size == 3]
    assert len(triples) == 20
    orbits = spread.classify_iso(W32, triples)
    assert [p.members for p in orbits] == [(0, 4, 6)]


def test_classify_separates_sizes():
    # Each orbit is represented by its first input member, in order of the
    # orbit's least sorted image; the inputs need not be closed under the group.
    cases = [
        (CENSUS32, [(0, 4, 6), (0, 4, 7, 11, 14)]),
        (CENSUS32[::-1], [(7, 8, 11), (2, 4, 6, 10, 12)]),
        (CENSUS32[:3], [(0, 4, 6), (0, 4, 7, 11, 14)]),
        ([CENSUS32[0], CENSUS32[-1]], [(0, 4, 6)]),
    ]
    for inputs, expected in cases:
        orbits = spread.classify_iso(W32, inputs)
        assert [p.members for p in orbits] == expected


def test_classify_census_orbits():
    # Sp(4, 3) splits the size-5 complete partial spreads of W_3(3) into two
    # orbits of 216; every other size at W_3(3) and W_5(2) is one orbit.
    cases = [
        (
            W33,
            [
                (0, 5, 8, 11, 19, 21, 28, 30, 35, 38),
                (0, 5, 8, 12, 22, 28, 30, 35),
                (0, 5, 8, 12, 31),
                (0, 5, 8, 13, 22),
            ],
        ),
        (W52, [(0, 19, 32, 63, 71, 74, 87, 105, 127), (0, 19, 32, 63, 131)]),
    ]
    for space, expected in cases:
        orbits = spread.classify_iso(space, spread.search_maximal(space, "exhaustive"))
        assert [p.members for p in orbits] == expected


# -- repartition of the grid triple


def _complete_triple():
    return next(
        p for p in spread.search_maximal(W32, "exhaustive") if p.size == 3
    )


def test_repartition_triple_properties():
    triple = _complete_triple()
    other = spread.repartition_triple(triple)
    assert other.size == 3
    assert other.coverage == triple.coverage
    assert not set(other.members) & set(triple.members)
    for i in triple.members:
        for j in other.members:
            meet = W32.generator(i).point_mask & W32.generator(j).point_mask
            assert bin(meet).count("1") == 1


def test_repartition_twice_returns_original():
    triple = _complete_triple()
    again = spread.repartition_triple(spread.repartition_triple(triple))
    assert again.members == triple.members


def test_repartition_rejects_extendible_triple():
    ps = spread.partial_spread(W32, S32.members[:3])
    with pytest.raises(NotUnextendibleTriple):
        spread.repartition_triple(ps)
    with pytest.raises(NotUnextendibleTriple):
        spread.repartition_triple(S32)


# -- structure of spreads around an (N-2)-space


def test_spread_structure_through_sections():
    # For a spread member alpha and a hyperplane tau of alpha, the other d
    # generators through tau each meet every remaining spread member once,
    # and their points off tau are covered exactly once in total.
    for space, s in ((W32, S32), (W33, S33)):
        alpha = space.generator(s.members[0])
        tau = algebra.rref(alpha.basis[:1], space.field)
        through = polar.generators_through(tau, space)
        others = [g for g in through if g.gen_index != alpha.gen_index]
        assert len(others) == space.d
        tau_mask = 1 << space.point_index[tau[0]]  # tau is a point in W_3
        off_tau = 0
        for g in others:
            off_tau |= g.point_mask & ~tau_mask
        covered = 0
        for m in s.members[1:]:
            inter = space.generator(m).point_mask & off_tau
            assert bin(inter).count("1") == 1
            covered |= inter
        assert covered == off_tau

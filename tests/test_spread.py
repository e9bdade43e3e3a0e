"""Tests for partial-spread constructions, search, and classification.

Frozen expected values (orbit counts, census sizes, completion sizes) were
computed by the exhaustive enumeration oracles in this file and cross-checked
against the closed-form counts where those exist.
"""

import ast
import gc
import hashlib
import itertools
import pathlib
import random
import types

import numpy as np
import pytest

from polarmub import algebra, mub, pauli, polar, spread
from polarmub.errors import (
    AmbiguousPartner,
    BadK,
    CatalogMismatch,
    DimensionMismatch,
    GeneratorInSpread,
    NoPartner,
    NoSuitableChi,
    NotASpread,
    NotDisjoint,
    NotUnextendibleTriple,
    PolarMubError,
    ScaleExceeded,
)
from polarmub.polar import PolarSpace

import oracles
from oracles import covered_generators, line_mask, regulus_closure

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


def test_partial_spread_refuses_a_repeated_member():
    with pytest.raises(NotDisjoint, match="^repeated member$"):
        spread.partial_spread(W32, [1, 1])


@pytest.mark.parametrize("members", [[1.5, 7.9], [1.0], [True], [0, False], ["3"], [np.float64(2)]])
def test_partial_spread_refuses_members_that_are_not_integers(members):
    # int() would read 1.5 and 7.9 as members 1 and 7, and True as member 1.
    with pytest.raises(TypeError, match="integer"):
        spread.partial_spread(W32, members)


def test_partial_spread_accepts_numpy_integers():
    members = np.array(S32.members[:3], dtype=np.int64)
    assert spread.partial_spread(W32, members) == spread.partial_spread(W32, S32.members[:3])
    assert spread.partial_spread(W32, [np.int32(S32.members[0])]).members == S32.members[:1]


@pytest.mark.parametrize("members", [[-1], [0, -15], [15], [S32.members[0], 16]])
def test_partial_spread_refuses_indices_outside_the_catalog(members):
    # A negative index would otherwise alias the generator counted from the end.
    with pytest.raises(ValueError, match="outside"):
        spread.partial_spread(W32, members)


def test_member_generators_refuse_indices_outside_the_catalog():
    for members in ((-1,), (0, 15)):
        with pytest.raises(ValueError, match="outside"):
            spread.PartialSpread(W32, members, 0).member_generators()
    assert S32.member_generators() == [W32.generators[m] for m in S32.members]


def outside(s):
    return next(g.gen_index for g in s.space.generators if g.gen_index not in s.members)


def test_generator_references_that_are_not_integers_are_refused():
    # int() would read 1.7 and True as generator 1, and x + 0.5 as x.
    x, m0, m1 = outside(S33), S33.members[0], S33.members[1]
    calls = [
        lambda: spread.construct_TU(S33, 1.7),
        lambda: spread.construct_TU(S33, True),
        lambda: spread.pair_partner(S33, x + 0.5),
        lambda: spread.construct_U_set(S33, 1.0),
        lambda: spread.construct_SR(S33, float(m0), m1, 0),
        lambda: spread.construct_SR(S33, m0, True, 0),
        lambda: spread.transversal_blocks(S33, m0, float(m1)),
        lambda: spread.PartialSpread(W33, (1.0,), 0).member_generators(),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="must be an integer index or a Generator"):
            call()


def test_generators_of_another_space_are_refused():
    # A W_3(5) line has an index, but it is no line of W_3(3).
    W35 = PolarSpace(5, 2)
    x = W35.generators[outside(S33)]
    m0, m1 = (W35.generators[m] for m in S33.members[:2])
    calls = [
        lambda: spread.partial_spread(W33, [x]),
        lambda: spread.construct_TU(S33, x),
        lambda: spread.pair_partner(S33, x),
        lambda: spread.construct_U_set(S33, x),
        lambda: spread.construct_SR(S33, m0, m1, 0),
        lambda: spread.transversal_blocks(S33, m0, m1),
        lambda: spread.construct_TU(S33, W35.generators[100]),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: spread.classify_iso(W33, [p for p in CENSUS32 if p.size == 3][:2]),
        lambda: polar.common_transversals([W33.generators[m] for m in S33.members[:2]], W32),
        lambda: spread.members_meeting(S32, W33.generators[7]),
    ],
    ids=["classify_iso", "common_transversals", "members_meeting"],
)
def test_inputs_of_another_space_are_refused(call):
    # Unchecked, these answer two orbits of W_3(2) triples read in W_3(3),
    # W_3(2) transversals of W_3(3) lines, and members [0, 7].
    with pytest.raises(DimensionMismatch):
        call()


def test_numpy_integers_and_own_generators_name_the_same_line():
    x = outside(S33)
    m0, m1 = S33.members[:2]
    for ref in (np.int64(x), W33.generators[x]):
        assert spread.construct_TU(S33, ref) == spread.construct_TU(S33, x)
        assert spread.pair_partner(S33, ref) == spread.pair_partner(S33, x)
        assert spread.construct_U_set(S33, ref) == spread.construct_U_set(S33, x)
    plain = spread.construct_SR(S33, m0, m1, 0)
    assert spread.construct_SR(S33, np.int64(m0), W33.generators[m1], 0) == plain
    assert spread.transversal_blocks(S33, W33.generators[m0], np.int32(m1)) == (
        spread.transversal_blocks(S33, m0, m1)
    )
    assert spread.partial_spread(W33, [W33.generators[m] for m in S33.members]) == S33


def test_classical_spread_sizes_and_coverage():
    for space, s in ((W32, S32), (W33, S33), (W52, S52)):
        assert s.size == space.d**space.n + 1
        assert s.coverage == full_mask(space)
        assert s.is_spread
    w35 = PolarSpace(5, 2)
    s35 = spread.construct_symplectic_spread(w35)
    assert s35.size == 26 and s35.coverage == full_mask(w35)


# -- field reduction, pinned bit for bit
#
# sha256 of repr(...) of each value, recorded from the polynomial-basis
# arithmetic on F_{d^N} that first built the regular spread.

SPREAD_PINS = {
    (2, 2): "0e7a0e2c15867646f10b4df8d141113340b953f6083cb5e39ace05301dd6841e",
    (3, 2): "0e15b40b89dc3ec283ef1b94bb0f7e7d235530853385be7e80382fee17d29578",
    (5, 2): "284d5a529ff00b7611f2644a1da99b035d757388dab9105d4023a997a474978c",
    (7, 2): "ecce9537d308fbdfb0307f99afefa70cb6fad0b32eb7a5e99ecf5c9c960ab1f0",
    (11, 2): "84e7fa7842c63ac0b9941006e7f3fea2816204c3812f7d28975bca7a1cdf79b8",
    (13, 2): "c8fccac3c3b62b3f95b670b366b364a8060b1dd719bdff03ef759220248d03a2",
    (2, 3): "1650fde48939a70468e6e49d74b5bb29b4cc3d312963f5e55c5f86591b7a6f69",
    (3, 3): "139ff2f9dc1c1567da8316d2bc68fbc53ea62f3a9b9d2e01fd69016e00864675",
    (2, 4): "0beb437422b52b41a9ed08595c1da3fb230338c8f17857ddcea15715732bd767",
    # W_5(5), recorded from the matrix field reduction with its
    # row-by-row coordinate map.
    (5, 3): "d154758856de56e66c971057a3534917071c2559b4c9c6559cb046b5ade803ef",
}

USET_PINS = {
    (2, 2): "e54bdaba9a63f92bfd3297c1ee3b6c90d8a3861e742ab5406c9e0661285c5dad",
    (3, 2): "a6fffcd9a89c59fb21f0e88d0e8b335c228727d7183edb8c75b5d4c9bdc1a949",
    (5, 2): "da68686021073c755d062eaf2c957cce04c5aa86e08e89177abb25eeb4dd712e",
    (7, 2): "fb9b51518ef62b8a6da8586fce563a250aa3c7f02e19fc23280b3905eef303c8",
    (2, 3): "2c9915ab5e485ad14ee373599f2aa4c2029584a20c73b07d820cb069923a2e9c",
    # 510 of the 2278 carriers give a U-set; the others meet no member in
    # a plane, so NoSuitableChi.
    (2, 4): "69017fee1f2c48abe2845bb2c5edb46c58a5a81e26743b40002217f62c9bf2ca",
}

TRACE_GRAM_PINS = {
    (2, 1): "a0e10c7a00c7e25d546e124a2f6fbc687ecbbb1b2cb4a95dd2ec09a0d05e7461",
    (2, 2): "f4be7a4e82f8d6e4f90a5dea506208091401b944b36d329136b2e74c3b737897",
    (2, 3): "b858702943b1b8c2a09c8be33c7f53a1f2c36c0103d5ce1f71af46c6a21bf057",
    (2, 4): "96462bc9ec99f89b73c7b11260ab26e36dd78b90ea39d25365b1474446ad4c71",
    (2, 5): "b064fe9995e34847bd3f383658cc12dd0d019863d16edc04269ee85f167c8e8f",
    (2, 6): "f433e59f6ec8dc5b2f4c8d710f5c3d51e59adf2b43b60ddd268f46026e106e39",
    (2, 7): "2259d7b9a64fdd8f1da5e2e251333497a9452c0fb9b090591ed654632bedf5a2",
    (2, 8): "096bda2597fce511d04f4b1ec096b3b9434bdcd8119b2566e626f8754ec848b0",
    (3, 1): "d179efa8545bd9e7af662d2bf26ee3acd41f5d2a49fde92c0d8dab1651fecce0",
    (3, 2): "eb212db70269ec5e2f7f2c9b0f44b109506d474a51e10c7e15713ba941658964",
    (3, 3): "1a62aac6cd87ba4dda36245d2bb7623b12a2107d3d0645d6af48ea0df33d782b",
    (3, 4): "81e2f527b32132693970040509e668306745025e35a19aafdbf90237dc309b28",
    (3, 5): "eef6784bd605349533721cce2600ead4a7c8ba0d0d8734d5cf86dd531e305d06",
    (5, 1): "7131abf837b7283a136716a384804c26363d7293313d55b8cc1a8f7e51982ed4",
    (5, 2): "541e01e9a490aab231e114eb9a2383df8def51d1d5903a5c738757c34798568a",
    (5, 3): "21d8f18f3ea651c1fee8344d2e3b3335a6ef7df2422af296d1029be9f0fe9711",
    (5, 4): "3e91f8885dee7b594274e81eccf336d56e7e1ead5e0dca21a62a02606318e054",
    (7, 1): "78477926141aa9df7276e7bc1721a41fd68e953ce843d2abe56b2b5589359cd8",
    (7, 2): "3f1d3093df6fb96557f80579edfc832d454cdadfa0468dc0bcd14863ca849799",
    (7, 3): "081e63c467dffd7118a0f4cb76e86252617582b270c6a7ec2ca2196a2c1cbc41",
    (11, 1): "6c0f464ecb531f4b41b1472e6a94699e3a4fe815b541ce965ece0af3978e4f95",
    (11, 2): "80b12a21322ddfdb17e3985cb78b965a82b2efa5a139c7e2b9c0ad5ca2b93a29",
    (13, 1): "f903a04683632804309c48ccd767d709b1fb7044ea7b809ff8fd1827c6ee8809",
    (13, 2): "b156b7c91d9de7b6b59d35cc4df55d88d6f6967797a7a19c16d6cff62160a04e",
}


# The images of the 2N unit vectors under the hyperbolic basis change of
# `_symplectic_coordinates`, from the trace form to the canonical form,
# recorded from the row-by-row coordinate map.
COORDINATE_PINS = {
    (2, 1): "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
    (2, 2): "5d4a4436da741e88c683c4053d7cf38b72528861040bf5083355ae85ded75cd7",
    (2, 3): "d25e8ce2cfac8708f34b65af557677fb7ce3250a2ae2f2a7251848b10ea2ac79",
    (2, 4): "b2a34c492ba37ffa17db1b2a47c359d2eb1b743050ebd86291871e9c132f5d88",
    (2, 5): "27554ed6a8554d55954345d48a9e0c6c9a7c3bc3daf663fa6ca7d35d1f725e18",
    (2, 6): "3437cb5e979b2a52db00b029736ea74bafc57aba9116f733df8f10d874d4062a",
    (2, 7): "b8a03a705557f62e2edeb5540ab3ef8ed894bac3cf57a8fb6e8831fa2b2affd1",
    (2, 8): "034a251e1096462b10840eb182e07bb27a3eb72a6a5fdb85e18854a26cd04408",
    (3, 1): "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
    (3, 2): "8f95846f605a3958f9943339aba85ea0a497f6b36f49b7ddda22bb32f1051468",
    (3, 3): "49e05565db6af3b3aee45e4644e3db2d2d7f2e4750b6f4dda2e6033216b81b04",
    (3, 4): "f24d09ed8a96d8b16867570b75118712476d5b245f4c7bc9e584843b859d64b6",
    (3, 5): "aa65542e5ac10a5bbda6f95c392b2fc178f3999c223e8876adae14b9f869951e",
    (5, 1): "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
    (5, 2): "8f95846f605a3958f9943339aba85ea0a497f6b36f49b7ddda22bb32f1051468",
    (5, 3): "7e2bfcf0d9a319019b8db4adfde98778c21b2c2232790cd4c1c9123eb120ea67",
    (5, 4): "e306116b47cd06f50853278a64ff870295ce71341ddf719e044c2e9f5fefaf9f",
    (7, 1): "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
    (7, 2): "5306380f606abbcf3081f8d21625cd38e0f829076f603062d0521e5d7ebd1e57",
    (7, 3): "5e68079b38fa6f4fd6f895813cddb504b907a2c8cf9041e947591db97010f250",
    (11, 1): "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
    (11, 2): "6ea3ad1a7571ddc126870b9f059a81a237ec3b3a67a8a1a66345046128c79514",
    (13, 1): "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
    (13, 2): "6ea3ad1a7571ddc126870b9f059a81a237ec3b3a67a8a1a66345046128c79514",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("d, n", sorted(SPREAD_PINS))
def test_regular_spread_members_are_pinned(d, n):
    s = spread.construct_symplectic_spread(PolarSpace(d, n))
    assert _digest(s.members) == SPREAD_PINS[d, n]


@pytest.mark.parametrize("d, n", sorted(USET_PINS))
def test_uset_outcome_of_every_carrier_is_pinned(d, n):
    space = PolarSpace(d, n)
    s = spread.construct_symplectic_spread(space)
    outcomes = []
    for g in space.generators:
        if g.gen_index in s.members:
            continue
        try:
            outcome = spread.construct_U_set(s, g).members.members
        except PolarMubError as exc:
            outcome = type(exc).__name__
        outcomes.append((g.gen_index, outcome))
    assert _digest(outcomes) == USET_PINS[d, n]


def test_uset_carrier_that_meets_no_member_deeply_is_refused():
    s = spread.construct_symplectic_spread(PolarSpace(2, 4))
    with pytest.raises(
        NoSuitableChi, match=r"^carrier meets 0 members in an \(N-2\)-space, need exactly 1$"
    ):
        spread.construct_U_set(s, 4)


def test_order_two_trades_from_rank_four():
    # The traded set fails its exact-cover check at W_3(2) and W_5(2), so
    # there every U-set is the untraded set of members meeting the carrier.
    for s in (S32, S52):
        for g in s.space.generators:
            if g.gen_index not in s.members:
                u = spread.construct_U_set(s, g)
                assert list(u.members.members) == spread.members_meeting(s, g)
    # At W_7(2) the traded set passes.
    space = PolarSpace(2, 4)
    s = spread.construct_symplectic_spread(space)
    u = spread.construct_U_set(s, 1)
    assert u.members.members == (2, 154, 284, 985, 1287, 1358, 1551, 1573, 1698)
    assert list(u.members.members) != spread.members_meeting(s, space.generators[1])


def test_trace_gram_is_pinned_for_every_accepted_space():
    accepted = {
        (d, n)
        for d in algebra.SUPPORTED_PRIMES
        for n in range(1, 9)
        if polar.point_count(d, n) <= polar.POINT_LIMIT
    }
    assert accepted == set(TRACE_GRAM_PINS)
    for d, n in sorted(accepted):
        gram = spread._trace_gram(spread._field_modulus(d, n), d)
        assert _digest(gram) == TRACE_GRAM_PINS[d, n], (d, n)


def test_symplectic_coordinates_are_pinned_for_every_accepted_space():
    accepted = {
        (d, n)
        for d in algebra.SUPPORTED_PRIMES
        for n in range(1, 9)
        if polar.point_count(d, n) <= polar.POINT_LIMIT
    }
    assert accepted == set(COORDINATE_PINS)
    for d, n in sorted(accepted):
        space = PolarSpace(d, n)
        gram = spread._trace_gram(spread._field_modulus(d, n), d)
        # Row i of C is the image of the unit vector e_i.
        C = spread._symplectic_coordinates(gram, space.form, space.field)
        assert _digest(C) == COORDINATE_PINS[d, n], (d, n)
        coordinates = oracles.symplectic_coordinates(gram, space.form, space.field)
        unit = [tuple(int(i == j) for j in range(2 * n)) for i in range(2 * n)]
        assert C == tuple(coordinates(e) for e in unit), (d, n)
        assert spread._field_modulus(d, n) == oracles.field_modulus(d, n), (d, n)


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
            covered = covered_generators(sub)
            assert len(covered) == 1


def test_covered_generators_w52_five_subset():
    subset = spread.partial_spread(W52, S52.members[:5])
    # not every 5-subset covers a generator in general, but the canonical
    # first one of the classical spread does, and exactly one
    covered = covered_generators(subset)
    assert len(covered) == 1


def test_single_generator_covers_nothing_else():
    ps = spread.partial_spread(W33, [0])
    assert covered_generators(ps) == []


def test_offspread_line_meets_exactly_d_plus_one_members():
    for space, s in ((W32, S32), (W33, S33)):
        for g in space.generators:
            if g.gen_index in s.members:
                continue
            assert len(spread.members_meeting(s, g)) == space.d + 1


# -- regularity


def test_classical_spreads_are_regular():
    assert spread.check_regularity(S33) is True
    assert spread.check_regularity(S32) is True  # each triple is a whole regulus
    assert spread.check_regularity(spread.construct_symplectic_spread(PolarSpace(5, 2)))
    assert spread.check_regularity(spread.construct_symplectic_spread(PolarSpace(7, 2))) is True
    # Rank 3 at odd order (W_5(3)) and rank 4 (W_7(2)).
    assert spread.check_regularity(spread.construct_symplectic_spread(PolarSpace(3, 3))) is True
    assert spread.check_regularity(spread.construct_symplectic_spread(PolarSpace(2, 4))) is True


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 4), (7, 2), (3, 1)])
def test_member_positions_match_the_point_table(d, n):
    # A half-size prefix leaves points uncovered, which read `size`.
    s = spread.construct_symplectic_spread(PolarSpace(d, n))
    half = spread.partial_spread(s.space, s.members[: s.size // 2])
    for ps in (s, half):
        got, want = ps.member_positions(), oracles.member_positions(ps)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.count_nonzero(got == half.size) == s.space.num_points - half.coverage.bit_count() > 0


def _uset_family(s):
    final, cert = spread.unextendible_from_Uset(s, spread.construct_U_set(s))
    return cert.complete and not final.is_spread


@pytest.mark.parametrize(
    "job",
    [
        spread.check_regularity,
        lambda s: mub.certify_weak_umub(s).valid,
        lambda s: pauli.generator_from_class(pauli.class_from_generator(3, s.space), s.space)
        == s.space.generators[3],
        _uset_family,
    ],
    ids=["regularity", "weak_umub", "class_round_trip", "uset_family"],
)
def test_single_set_readers_leave_the_catalog_point_table_unbuilt(job):
    # Each asks about a handful of generators of a fresh space, so none
    # builds the point table of the whole catalog.
    space = PolarSpace(5, 2)
    assert job(spread.construct_symplectic_spread(space)) is True
    assert "generator_points" not in vars(space)


def test_regulus_oracle_matches_check_regularity():
    # Every triple of a regular spread is regulus-closed.
    for space in (W32, W52, W33, PolarSpace(5, 2)):
        s = spread.construct_symplectic_spread(space)
        closure = regulus_closure(s)
        assert len(closure) == len(list(itertools.combinations(s.members, 3)))
        assert all(closure.values()) and spread.check_regularity(s)


@pytest.mark.parametrize("d,unclosed", [(2, 0), (3, 1), (5, 4), (7, 4)])
def test_regularity_at_rank_one(d, unclosed):
    # At N = 1 the members are points and every d + 1 of them form the
    # spread, which is regular.  Fewer than d + 1 points leave every triple
    # unclosed: 0, 1, 4 and 4 triples on the first min(4, d) points.
    space = PolarSpace(d, 1)
    assert spread.check_regularity(spread.construct_symplectic_spread(space)) is True
    ps = spread.partial_spread(space, range(min(4, d)))
    expected = [triple for triple, closed in regulus_closure(ps).items() if not closed]
    assert list(spread._unclosed_triples(ps)) == expected
    assert len(expected) == unclosed


@pytest.mark.parametrize("d,size,unclosed", [(3, 8, 32), (5, 22, 940)])
def test_unclosed_triples_of_block_swap_completion(d, size, unclosed):
    # The complete block swap of a regular spread is no spread.  At W_3(5),
    # 940 of its 1540 member triples are not regulus-closed; the per-triple
    # check finds the same triples as the plain-Python loop.
    s = spread.construct_symplectic_spread(PolarSpace(d, 2))
    sr = spread.construct_SR(s, s.members[0], s.members[1], 0)
    assert sr.size == size and not sr.is_spread and spread.is_complete(sr).complete
    closure = regulus_closure(sr)
    assert len(closure) == len(list(itertools.combinations(sr.members, 3)))
    expected = [triple for triple, closed in closure.items() if not closed]
    assert list(spread._unclosed_triples(sr)) == expected
    assert len(expected) == unclosed


def test_unclosed_triples_of_rank_three_TU_completion():
    # The completed T(U) of the regular spread of W_5(3) is no spread: 465
    # of its 969 member triples are not regulus-closed.
    W53 = PolarSpace(3, 3)
    s = spread.construct_symplectic_spread(W53)
    u = next(g for g in W53.generators if g.gen_index not in s.members)
    tu, cert = spread.complete_TU(spread.construct_TU(s, u))
    assert tu.size == 19 and cert.complete and not tu.is_spread
    closure = regulus_closure(tu)
    expected = [triple for triple, closed in closure.items() if not closed]
    assert list(spread._unclosed_triples(tu)) == expected
    assert (len(expected), len(closure)) == (465, 969)


# (size, number of unclosed triples, sha256 of the repr of their list) of
# the block swaps of the regular spread of W_3(7) on its first two members,
# pinned from the count that took one member pair at a time.
W37_SWAP_PINS = {
    0: (44, 7364, "1e0f06bc0fef2a14705be543552586838c54376964277b161641778245ca78d8"),
    1: (40, 7696, "0262cbd755caeb25a93ee5bb965a50bcb38eba62743a123af4cc38bba6f11c3a"),
    2: (36, 6636, "f4fae0f2f1fd26cc1e1452169279dd23e5daa2764faa2c3b558dda67ce404d10"),
}


@pytest.mark.parametrize("k", sorted(W37_SWAP_PINS))
def test_unclosed_triples_of_W37_block_swaps_are_pinned(k):
    s = spread.construct_symplectic_spread(PolarSpace(7, 2))
    sr = spread.construct_SR(s, s.members[0], s.members[1], k)
    triples = list(spread._unclosed_triples(sr))
    digest = hashlib.sha256(repr(triples).encode()).hexdigest()
    assert (sr.size, len(triples), digest) == W37_SWAP_PINS[k]


# Two spreads of W_5(3) that are not regular, by member tuple, with (number
# of unclosed triples, sha256 of the repr of their list), pinned from the
# count that took one member pair at a time; `oracles.regulus_closure` finds
# the same triples.
NON_REGULAR_W53 = {
    (9, 51, 94, 120, 159, 219, 258, 272, 305, 361, 385, 450, 482, 495, 581, 633, 691,
     725, 764, 790, 834, 836, 915, 965, 989, 1037, 1072, 1109):
    (2912, "6baf8b6af758ebce8039dca4ee71dc33752e669a5f9652af784c9267c1e3c2b8"),
    (23, 59, 85, 116, 165, 213, 227, 292, 302, 366, 391, 441, 500, 515, 589, 634, 695,
     768, 785, 802, 829, 880, 922, 935, 975, 1024, 1071, 1101):
    (2808, "5e571ad1985b8190e704681eb7301a3468f1143acaee80c5a7ca3260b79b93f8"),
}


@pytest.mark.parametrize("members", list(NON_REGULAR_W53))
def test_non_regular_spreads_of_W53_are_pinned(members):
    s = spread.partial_spread(PolarSpace(3, 3), members)
    assert s.is_spread and spread.check_regularity(s) is False
    triples = list(spread._unclosed_triples(s))
    digest = hashlib.sha256(repr(triples).encode()).hexdigest()
    assert (len(triples), digest) == NON_REGULAR_W53[members]


@pytest.mark.parametrize("entry", ["empty", "full", "second"])
def test_regularity_refuses_perp_masks_of_another_space(entry):
    # The perp mask of the point on the first member's first rref row, made
    # empty or full, leaves a perp cut that is not one point of each other
    # member; made that of the second row's point, it leaves cut points in
    # the first member's perp.
    space = PolarSpace(3, 2)
    s = spread.construct_symplectic_spread(space)
    perps = list(space.perp_masks)
    first, second = (space.points.index(row) for row in s.member_generators()[0].basis)
    perps[first] = {"empty": 0, "full": full_mask(space), "second": perps[second]}[entry]
    vars(space)["perp_masks"] = tuple(perps)
    message = "lies in the first member's perp" if entry == "second" else "points of a member, not one"
    with pytest.raises(CatalogMismatch, match=message):
        spread.check_regularity(s)


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
                if (line := line_mask(space, x, y)) & c
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


def test_complete_TU_refuses_more_than_one_extension():
    # Generator 0 alone was not cut from a spread: d^3 = 27 lines miss it.
    with pytest.raises(AmbiguousPartner, match="27 disjoint extensions"):
        spread.complete_TU(spread.partial_spread(W33, [0]))


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


@pytest.mark.parametrize("d", [3, 5, 7])
def test_pair_partner_is_the_other_line_with_the_same_members(d):
    # S_X, the members a line meets, is shared by exactly two outside lines.
    space = PolarSpace(d, 2)
    s = spread.construct_symplectic_spread(space)
    by_members = {}
    for g in space.generators:
        if g.gen_index not in s.members:
            key = tuple(spread.members_meeting(s, g))
            by_members.setdefault(key, []).append(g.gen_index)
    for x, y in by_members.values():
        assert spread.pair_partner(s, x).gen_index == y
        assert spread.pair_partner(s, y).gen_index == x


def test_pair_partner_needs_two_members_met():
    # A one-member partial spread: a line meeting it meets one member, and
    # a line disjoint from it none.
    s = spread.partial_spread(W33, [0])
    masks = [g.point_mask for g in W33.generators]
    meets = next(j for j in range(1, len(masks)) if masks[j] & masks[0])
    misses = next(j for j in range(1, len(masks)) if not masks[j] & masks[0])
    for x, count in ((meets, 1), (misses, 0)):
        with pytest.raises(NoPartner, match=f"x meets {count} members"):
            spread.pair_partner(s, x)


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


def test_pair_partner_refuses_a_member():
    with pytest.raises(GeneratorInSpread, match="outside the spread"):
        spread.pair_partner(S33, S33.members[0])


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


def test_transversal_blocks_refuse_even_order():
    # In order 2 the transversals of two members of the regular spread do
    # not pair off by the members they meet.
    with pytest.raises(AmbiguousPartner, match="block of size 1"):
        spread.transversal_blocks(S32, S32.members[0], S32.members[1])


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


@pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
def test_construct_SR_refuses_a_k_that_is_not_an_integer(k):
    # True once built the k = 1 swap and 1.0 failed in slicing.
    s = spread.construct_symplectic_spread(PolarSpace(5, 2))
    with pytest.raises(TypeError, match="k must be an integer"):
        spread.construct_SR(s, s.members[0], s.members[1], k)
    assert spread.construct_SR(s, s.members[0], s.members[1], np.int64(1)).size == 20


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


def test_unextendible_from_uset_refuses_a_carrier_in_the_spread():
    # The trade is construct_TU's, which refuses a member before any scan.
    u = spread.USet(spread.construct_U_set(S33).members, S33.members[0])
    with pytest.raises(GeneratorInSpread, match="already belongs to the spread"):
        spread.unextendible_from_Uset(S33, u)


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
    [("exhaustive", 5), ("first_of_size", None), ("first_of_size", 0), ("first_of_size", -2),
     ("bogus", None)],
)
def test_search_rejects_a_size_it_cannot_answer(mode, size):
    # An unknown mode is refused before any size is read.
    with pytest.raises(ValueError, match="unknown search mode" if mode == "bogus" else None):
        spread.search_maximal(W32, mode, size=size)


@pytest.mark.parametrize(
    "mode, size",
    [("first_of_size", True), ("first_of_size", 8.0), ("first_of_size", 7.5),
     ("first_of_size", "8"), ("exhaustive", False)],
)
def test_search_refuses_a_size_that_is_not_an_integer(mode, size):
    with pytest.raises(TypeError, match="size must be an integer"):
        spread.search_maximal(W33, mode, size=size)


def test_search_takes_a_numpy_integer_size():
    found = spread.search_maximal(W33, "first_of_size", size=np.int64(8))
    assert [p.members for p in found] == [
        p.members for p in spread.search_maximal(W33, "first_of_size", size=8)
    ]


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
    "deserialize_spread": "README spread files",
}


def _public_definitions(stmt):
    """A top-level function or class, and the methods and properties of a
    public class.  A private class's methods may be overrides, like
    `_Parser.error`, which only the base class calls."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        yield stmt
    if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
        yield from (node for node in stmt.body if isinstance(node, ast.FunctionDef))


def _used_names(node, own=()):
    """Every name or attribute read under node, except a definition's own
    name inside its body."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = (*own, node.name)
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    if name and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _used_names(child, own)


def test_package_has_no_uncalled_public_names():
    package = pathlib.Path(spread.__file__).parent
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    defined = {}
    used = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        used.update(_used_names(tree))
        for stmt in tree.body:
            for node in _public_definitions(stmt):
                defined[node.name] = ast.get_docstring(node) or ""
    # perfbench's calls to its own functions, like `workloads.normalize`,
    # call nothing in the package.
    bench = [ast.parse(path.read_text()) for path in sorted(perfbench.glob("*.py"))]
    own = {n.name for tree in bench for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    used.update(name for tree in bench for name in _used_names(tree) if name not in own)
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
        w33 = PolarSpace(3, 2)
        spread.search_maximal(w33, "exhaustive")
        spread.search_maximal(w33, "first_of_size", size=7)
        spread.construct_U_set(spread.construct_symplectic_spread(w33))
        PolarSpace(2, 2).generators
        gc.collect()
        names = {o.__name__ for o in gc.garbage if isinstance(o, types.FunctionType)}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not names & {"pivot", "lex", "grow", "cover"}


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


def test_classify_lift_refuses_a_point_permutation_that_moves_a_line_off(monkeypatch):
    # Swapping two points of W_3(2) is no collineation: some line through
    # one of them maps to a point set that is no line.
    swap = list(range(W32.num_points))
    swap[0], swap[1] = 1, 0
    monkeypatch.setattr(polar, "symplectic_generators", lambda space: [tuple(swap)])
    with pytest.raises(CatalogMismatch, match="off the catalog"):
        PolarSpace(2, 2).transvection_lift


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
        # tau, a hyperplane of alpha, is a point in W_3.
        tau_mask = 1 << int(space.index_of[alpha.basis[0] @ space.weights])
        through = [g for g in space.generators if g.point_mask & tau_mask]
        others = [g for g in through if g.gen_index != alpha.gen_index]
        assert len(others) == space.d
        off_tau = 0
        for g in others:
            off_tau |= g.point_mask & ~tau_mask
        covered = 0
        for m in s.members[1:]:
            inter = space.generator(m).point_mask & off_tau
            assert bin(inter).count("1") == 1
            covered |= inter
        assert covered == off_tau

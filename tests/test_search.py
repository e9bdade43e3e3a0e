"""Pins `spread.search_maximal` against an independent maximal-clique oracle.

Complete partial spreads are the maximal sets of pairwise disjoint
generators, that is, the maximal cliques of the disjointness graph.  The
oracle builds that graph from `point_mask` ANDs (not from
`PolarSpace.disjoint_adjacency`) and lists its maximal cliques with
networkx, so any pruning of the search that drops or reorders a result,
or changes which result `first_of_size` returns, fails here.  Beyond the
oracle's reach, sizes with no result are pinned at W_7(2) and W_5(3),
where `first_of_size` answers from one branch and the pair-orbit
certificate.
"""

import functools

import networkx as nx
import pytest

from polarmub import polar, spread
from polarmub.errors import CatalogMismatch, NotDisjoint
from polarmub.polar import PolarSpace


@functools.lru_cache(maxsize=None)
def space(d, n):
    return PolarSpace(d, n)


@functools.lru_cache(maxsize=None)
def maximal_cliques(d, n):
    """Sorted member tuples of every maximal clique, in lexicographic order."""
    masks = [g.point_mask for g in space(d, n).generators]
    graph = nx.Graph()
    graph.add_nodes_from(range(len(masks)))
    graph.add_edges_from(
        (i, j)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if not masks[i] & masks[j]
    )
    return sorted(tuple(sorted(c)) for c in nx.find_cliques(graph))


SPACES = [(2, 2), (3, 2), (2, 3)]


@pytest.mark.parametrize("d, n", SPACES)
def test_exhaustive_equals_maximal_cliques_in_order(d, n):
    found = spread.search_maximal(space(d, n), "exhaustive")
    assert [p.members for p in found] == maximal_cliques(d, n)


@pytest.mark.parametrize("d, n", SPACES)
def test_exhaustive_results_are_partial_spreads_of_their_members(d, n):
    for p in spread.search_maximal(space(d, n), "exhaustive"):
        assert p == spread.partial_spread(space(d, n), p.members)


@pytest.mark.parametrize(
    "mode, size", [("exhaustive", None), ("first_of_size", 3)], ids=["exhaustive", "first_of_size"]
)
def test_search_refuses_an_adjacency_that_lists_a_meeting_generator(monkeypatch, mode, size):
    # The search trusts the adjacency table for its candidates; a wrong
    # entry must raise rather than return members that share a point.  The
    # two modes run separate loops, and each checks at every descent.
    w32 = PolarSpace(2, 2)
    masks = [g.point_mask for g in w32.generators]
    adj = list(w32.disjoint_adjacency)
    meets = next(j for j in range(1, len(masks)) if masks[0] & masks[j])
    adj[0] |= 1 << meets
    monkeypatch.setattr(PolarSpace, "disjoint_adjacency", property(lambda self: adj))
    with pytest.raises(NotDisjoint):
        spread.search_maximal(w32, mode, size=size)


@pytest.mark.parametrize("d, n", SPACES)
def test_first_of_size_is_lex_least_clique_of_that_size(d, n):
    cliques = maximal_cliques(d, n)
    for size in range(1, d**n + 2):
        want = [c for c in cliques if len(c) == size][:1]
        found = spread.search_maximal(space(d, n), "first_of_size", size=size)
        assert [p.members for p in found] == want, size


@pytest.mark.parametrize("d, n", SPACES)
def test_first_of_size_answers_none_only_with_the_certificate(monkeypatch, d, n):
    # The 2N transvections at e_c do not move generator 0 onto every
    # generator, so the certificate fails: a size with no result raises, and
    # a size with one still finds it in the first branch, 0 and j*.
    units = polar.symplectic_generators(space(d, n))[: 2 * n]
    monkeypatch.setattr(polar, "symplectic_generators", lambda s: units)
    fresh = PolarSpace(d, n)
    cliques = maximal_cliques(d, n)
    for size in range(2, d**n + 2):
        want = [c for c in cliques if len(c) == size][:1]
        if want:
            found = spread.search_maximal(fresh, "first_of_size", size=size)
            assert [p.members for p in found] == want, size
        else:
            with pytest.raises(CatalogMismatch, match="generator 0 has"):
                spread.search_maximal(fresh, "first_of_size", size=size)


@pytest.mark.parametrize("d, n, size", [(2, 4, 3), (2, 4, 4), (3, 3, 3), (3, 3, 4)])
def test_first_of_size_w72_w53_absent(d, n, size):
    # W_7(2) and W_5(3) have no complete partial spread of 3 or 4 members:
    # none contains generators 0 and j*, and the pair-orbit certificate
    # carries that to every pair.  A search of every branch takes minutes.
    assert spread.search_maximal(space(d, n), "first_of_size", size=size) == []


@pytest.mark.parametrize(
    "size, members",
    [
        (14, (0, 7, 12, 17, 22, 28, 40, 44, 48, 56, 65, 73, 96, 104)),
        (16, (0, 7, 12, 17, 22, 28, 40, 44, 48, 65, 69, 78, 90, 94, 136, 153)),
    ],
)
def test_first_of_size_w35_pinned(size, members):
    found = spread.search_maximal(space(5, 2), "first_of_size", size=size)
    assert [p.members for p in found] == [members]
    assert spread.is_complete(found[0]).complete


W37_FIRST = {
    30: (0, 9, 16, 23, 30, 37, 44, 51, 67, 73, 82, 90, 99, 116, 122,
         131, 148, 154, 178, 190, 214, 220, 229, 246, 263, 322, 327, 340, 359, 370),
    40: (0, 9, 16, 23, 30, 37, 44, 51, 67, 73, 82, 90, 99, 105, 116, 122,
         132, 138, 148, 154, 166, 175, 178, 190, 193, 202, 214, 220, 246, 252,
         264, 273, 276, 291, 313, 322, 325, 335, 340, 359),
    50: (0, 9, 16, 23, 30, 37, 44, 51, 67, 73, 82, 90, 99, 105, 119, 127,
         132, 138, 143, 151, 166, 175, 178, 190, 193, 202, 215, 224, 227, 239,
         242, 251, 266, 274, 279, 285, 290, 298, 312, 318, 327, 335, 344, 350,
         359, 366, 373, 380, 387, 394),
}


@pytest.mark.parametrize("size", sorted(W37_FIRST))
def test_first_of_size_w37_pinned(size):
    # Beyond the reach of the networkx oracle: W_3(7) has 400 generators.
    found = spread.search_maximal(space(7, 2), "first_of_size", size=size)
    assert [p.members for p in found] == [W37_FIRST[size]]
    assert spread.is_complete(found[0]).complete


@pytest.mark.parametrize("size", [27, 40])
def test_first_of_size_beyond_a_spread_is_empty(size):
    # A spread of W_3(5) has 5^2 + 1 = 26 members, and no partial spread more.
    assert spread.search_maximal(space(5, 2), "first_of_size", size=size) == []

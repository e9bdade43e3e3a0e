"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
configuration.
"""

import itertools
import random

import numpy as np
import pytest

from polarmub import counting, mub, pauli, polar, spread
from polarmub.pauli import class_from_generator
from polarmub.polar import PolarSpace

import oracles
from oracles import covered_generators

TOL = 1e-9

_SPACES: dict[tuple[int, int], PolarSpace] = {}


def space(d, n):
    if (d, n) not in _SPACES:
        _SPACES[(d, n)] = PolarSpace(d, n)
    return _SPACES[(d, n)]


_CENSUSES: dict[tuple[int, int], dict[int, int]] = {}


def census(d, n):
    """Size -> count over every complete partial spread of W_{2n-1}(d)."""
    if (d, n) not in _CENSUSES:
        counts: dict[int, int] = {}
        for p in spread.search_maximal(space(d, n), "exhaustive"):
            counts[p.size] = counts.get(p.size, 0) + 1
        _CENSUSES[(d, n)] = dict(sorted(counts.items()))
    return _CENSUSES[(d, n)]


def report(criterion: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {verdict}{suffix}")
    return ok


def nonidentity_reps(sp):
    out = []
    for exps in itertools.product(range(sp.d), repeat=2 * sp.n):
        if any(exps):
            out.append(pauli.op_from_image(exps, sp.d))
    return out


def test_criterion_1_correspondence_oracle():
    """Matrix commutator vanishes exactly when the symplectic form does."""
    ok = True
    for d, n in ((2, 2), (3, 2), (2, 3)):
        sp = space(d, n)
        reps = nonidentity_reps(sp)
        mats = pauli.pauli_matrices(reps, sp.field)
        for (i, p), (j, q) in itertools.combinations(enumerate(reps), 2):
            comm = np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]))
            form = sp.symp_form(p.symplectic_image(), q.symplectic_image())
            if (comm < TOL) != (form == 0):
                ok = False
    assert report("1 correspondence oracle", ok)


def test_criterion_2_catalog_counts():
    expected = {
        (2, 2): (15, 15),
        (3, 2): (40, 40),
        (5, 2): (156, 156),
        (2, 3): (63, 135),
        (2, 4): (255, 2295),
    }
    ok = True
    for (d, n), (pts, gens) in expected.items():
        sp = space(d, n)
        if sp.num_points != pts or sp.num_generators != gens:
            ok = False
    assert report("2 catalog counts", ok)


def test_criterion_3_unextendible_triples_end_to_end():
    sp = space(2, 2)
    spreads = [p for p in spread.search_maximal(sp, "exhaustive") if p.size == 5]
    ok = len(spreads) > 0
    for s in spreads:
        for subset in itertools.combinations(s.members, 3):
            covered = covered_generators(spread.partial_spread(sp, subset))
            if len(covered) != 1:
                ok = False
                continue
            rest = [m for m in s.members if m not in subset]
            triple = spread.partial_spread(sp, rest + [covered[0].gen_index])
            cert = mub.certify_weak_umub(triple, tolerance=TOL)
            if not (cert.valid and cert.complete and cert.order == 3):
                ok = False
            if cert.max_deviation >= TOL:
                ok = False
    assert report("3 unextendible triples end-to-end", ok)


def test_criterion_4_triple_repartition():
    sp = space(2, 2)
    triple = next(
        p for p in spread.search_maximal(sp, "exhaustive") if p.size == 3
    )
    other = spread.repartition_triple(triple)
    ok = other.size == 3
    ok = ok and other.coverage == triple.coverage
    ok = ok and bin(triple.coverage).count("1") == 9
    for i in triple.members:
        for j in other.members:
            meet = sp.generator(i).point_mask & sp.generator(j).point_mask
            ok = ok and bin(meet).count("1") == 1
    assert report("4 triple repartition", ok)


def test_criterion_5_conjecture_resolution():
    ok = True
    for d in (2, 3, 5, 7, 11, 13):
        for n in range(2, 9):
            verdict = counting.conjecture_counts(d, n).verdict
            want = "Equality" if (d, n) in ((2, 2), (2, 3)) else "Violated"
            if verdict != want:
                ok = False
    for d, n, subsets in ((2, 2, 10), (2, 3, 126)):
        sp = space(d, n)
        s = spread.construct_symplectic_spread(sp)
        summary = counting.brute_force_conjecture(sp, s)
        if summary.subsets_total != subsets or summary.exactly_one != subsets:
            ok = False
        if not (summary.distinct_covered and summary.completions_complete):
            ok = False
    sp33 = space(3, 2)
    s33 = spread.construct_symplectic_spread(sp33)
    summary = counting.brute_force_conjecture(sp33, s33)
    if summary.first_failure is None:
        ok = False
    assert report("5 conjecture resolution", ok)


def test_criterion_6a_tu_completion_sizes():
    ok = True
    for d in (2, 3, 5):
        sp = space(d, 2)
        s = spread.construct_symplectic_spread(sp)
        allowed = {d * d - d + 1, d * d - d + 2}
        for g in sp.generators:
            if g.gen_index in s.members:
                continue
            final, cert = spread.complete_TU(spread.construct_TU(s, g))
            if not cert.complete or final.size not in allowed:
                ok = False
            if d == 2 and final.size != 3:
                ok = False
    assert report("6a T(U) completion sizes", ok)


def test_criterion_6b_block_swap_sizes():
    # Each transversal block of {L, M}^perp holds d + 1 spread members and
    # distinct blocks share exactly {L, M}, so swapping k + 1 blocks removes
    # (k + 1)(d + 1) - 2k members and adds 2(k + 1) lines:
    # d^2 + 1 - ((k + 1)(d + 1) - 2k) + 2(k + 1) = d^2 - (k + 1)d + 3k + 2.
    # Sizes 7/21/19 (one line fewer) are not complete, and W_3(3) has no
    # complete partial spread of size 7 at all.
    ok = True
    details = []
    for d, k in ((3, 0), (5, 0), (5, 1)):
        sp = space(d, 2)
        s = spread.construct_symplectic_spread(sp)
        l_idx, m_idx = s.members[0], s.members[1]
        sr = spread.construct_SR(s, l_idx, m_idx, k)
        want = d * d - (k + 1) * d + 3 * k + 2
        removed = set(s.members) - set(sr.members)
        added = set(sr.members) - set(s.members)
        transversals = {
            g.gen_index
            for g in polar.common_transversals([sp.generator(l_idx), sp.generator(m_idx)], sp)
        }
        added_mask = 0
        for a in added:
            added_mask |= sp.generator(a).point_mask
        complete = spread.is_complete(sr).complete
        details.append(f"d={d},k={k}: size {sr.size}, closed form {want}, complete={complete}")
        ok = ok and s.is_spread and complete and sr.size == want
        ok = ok and len(removed) == (k + 1) * (d + 1) - 2 * k and len(added) == 2 * (k + 1)
        ok = ok and added <= transversals
        ok = ok and all(sp.generator(r).point_mask & added_mask for r in removed)
        if d == 3:
            sizes = census(3, 2)
            details.append(f"W_3(3) census {sizes}")
            ok = ok and sr.size in sizes and 7 not in sizes
    details.append("the former 7/21/19 are one line short")
    report("6b block-swap sizes", ok, "; ".join(details))
    assert ok


def test_criterion_7_galois_bound_and_uniqueness():
    sp = space(2, 2)
    found = spread.search_maximal(sp, "exhaustive")
    non_spreads = [p for p in found if not p.is_spread]
    ok = all(p.size == 3 for p in non_spreads)
    orbits = spread.classify_iso(sp, non_spreads)
    ok = ok and len(orbits) == 1
    ok = ok and polar.symplectic_group_order(sp) == len(oracles.symplectic_group(sp)) == 720
    sp33 = space(3, 2)
    census = {}
    for p in spread.search_maximal(sp33, "exhaustive"):
        census[p.size] = census.get(p.size, 0) + 1
    ok = ok and census.get(8, 0) > 0
    ok = ok and not any(sz in census for sz in (9,))
    ok = ok and max(sz for sz in census if sz != 10) == 8
    assert report("7 Galois bound and uniqueness", ok)


def test_criterion_8_projector_suite():
    ok = True
    for d, n in ((2, 2), (3, 2), (2, 3)):
        sp = space(d, n)
        dim = d**n
        identity = np.eye(dim)
        bases = {}
        for g in sp.generators:
            c = class_from_generator(g, sp)
            basis = mub.eigenprojectors(c, sp.field)
            bases[g.gen_index] = basis
            total = np.zeros((dim, dim), dtype=complex)
            for p in basis.projectors:
                if np.max(np.abs(p @ p - p)) >= TOL:
                    ok = False
                if abs(np.trace(p) - 1.0) >= TOL:
                    ok = False
                total += p
            if np.max(np.abs(total - identity)) >= TOL:
                ok = False
            for p, q in itertools.combinations(basis.projectors, 2):
                if np.max(np.abs(p @ q)) >= TOL:
                    ok = False
            mats = pauli.pauli_matrices(c.ops, sp.field)
            for p in basis.projectors:
                for m in mats:
                    if np.max(np.abs(p @ m - m @ p)) >= TOL:
                        ok = False
        for g, h in itertools.combinations(sp.generators, 2):
            if g.point_mask & h.point_mask:
                continue
            if mub.unbiasedness(bases[g.gen_index], bases[h.gen_index]) >= TOL:
                ok = False
    assert report("8 projector suite", ok)


def test_criterion_9_antiregularity():
    rng = random.Random(97)
    ok = True
    for d in (3, 5):
        sp = space(d, 2)
        gens = sp.generators
        done = 0
        while done < 100:
            g, h = rng.sample(gens, 2)
            if g.point_mask & h.point_mask:
                continue
            if polar.double_perp_size(g, h, sp) != 2:
                ok = False
            done += 1
    sp2 = space(2, 2)
    for g, h in itertools.combinations(sp2.generators, 2):
        if g.point_mask & h.point_mask:
            continue
        if polar.double_perp_size(g, h, sp2) != 3:
            ok = False
    assert report("9 antiregularity", ok)


def test_criterion_10_uset_pipeline():
    ok = True
    for d, n in ((3, 2), (2, 3)):
        sp = space(d, n)
        s = spread.construct_symplectic_spread(sp)
        u = spread.construct_U_set(s)
        final, cert = spread.unextendible_from_Uset(s, u)
        if not cert.complete or final.is_spread:
            ok = False
        if (d, n) == (2, 3) and final.size != 2**3 - 2**2 + 1:
            ok = False
    assert report("10 U-set pipeline", ok)

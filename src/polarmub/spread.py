"""Partial spreads of W_{2N-1}(d): constructions, completeness, search.

A partial spread is held as a sorted tuple of generator indices plus the
union bitmask of the points it covers.  Completeness (maximality) of a
partial spread is always decided by a full scan of the generator catalog,
never inferred from a construction, so every certificate is a machine
check rather than a citation.  The same holds for a size that has no
complete partial spread: `search_maximal` searches one branch and states
the others empty only under the certified orbit of `polar`'s
`PolarSpace.disjoint_pair_orbit`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import and_, mul

import numpy as np

from . import algebra, polar
from .algebra import Matrix, Vector, _integer
from .errors import (
    AmbiguousPartner,
    BadK,
    CatalogMismatch,
    DimensionMismatch,
    GeneratorInSpread,
    NoBeta,
    NoPartner,
    NoSuitableChi,
    NotASpread,
    NotDisjoint,
    NotRankTwo,
    NotSymplecticBasis,
    NotUnextendibleTriple,
    ScaleExceeded,
)
from .polar import Generator, PolarSpace

EXHAUSTIVE_SPACES = {(2, 2), (3, 2), (2, 3)}


# Slots: an exhaustive census holds tens of thousands of these at once.
@dataclass(frozen=True, slots=True)
class PartialSpread:
    space: PolarSpace
    members: tuple[int, ...]
    coverage: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_spread(self) -> bool:
        full = self.size == self.space.d**self.space.n + 1
        covered = self.coverage == (1 << self.space.num_points) - 1
        if full != covered:
            raise NotDisjoint("member count and point coverage disagree")
        return full

    def member_generators(self) -> list[Generator]:
        return [self.space.generator(m) for m in self.members]

    def member_positions(self) -> np.ndarray:
        """Entry p is the position of the member on point p, or `size` on a
        point that no member covers, read off the members' point masks."""
        m = self.space.num_points
        masks = polar._mask_bytes([g.point_mask for g in self.member_generators()], (m + 7) // 8)
        member, point = np.nonzero(np.unpackbits(masks, axis=1, count=m, bitorder="little"))
        table = np.full(m, self.size)
        table[point] = member
        return table


@dataclass(frozen=True)
class CompletenessCert:
    complete: bool
    witness: int | None


@dataclass(frozen=True)
class USet:
    members: PartialSpread
    carrier: int


def partial_spread(space: PolarSpace, members) -> PartialSpread:
    gens = sorted((space.generator(m) for m in members), key=lambda g: g.gen_index)
    idx = tuple(g.gen_index for g in gens)
    if len(set(idx)) != len(idx):
        raise NotDisjoint("repeated member")
    coverage = 0
    for g in gens:
        if coverage & g.point_mask:
            raise NotDisjoint(f"member {g.gen_index} meets an earlier member")
        coverage |= g.point_mask
    return PartialSpread(space, idx, coverage)


# --------------------------------------------------------------------------
# Completeness.
# --------------------------------------------------------------------------


def is_complete(ps: PartialSpread) -> CompletenessCert:
    """Scan the catalog for a disjoint extension; lowest index wins."""
    for g in ps.space.generators:
        if not g.point_mask & ps.coverage:
            return CompletenessCert(False, g.gen_index)
    return CompletenessCert(True, None)


# --------------------------------------------------------------------------
# The field-reduction (classical, regular) spread.
# --------------------------------------------------------------------------


def _symplectic_coordinates(gram: Matrix, target: Matrix, spec: algebra.FieldSpec) -> Matrix:
    """The matrix C of a ↦ a·C = a·P⁻¹, for P the rows e1, f1, e2, f2, ...
    hyperbolic for the form B of the given Gram matrix, with P·gram·Pᵀ =
    target, the canonical form, checked.  Since target·targetᵀ = I, P⁻¹ =
    gram·Pᵀ·targetᵀ, whose columns are gram·f1ᵀ, -gram·e1ᵀ, gram·f2ᵀ, ...,
    so that a·C = (B(a, f1), -B(a, e1), B(a, f2), -B(a, e2), ...).  Each
    form B(u, v) = u·(gram·vᵀ) reads gram·vᵀ, or v·gram for B(v, u),
    computed once per basis vector."""
    d = spec.d
    width = len(gram)
    transposed = tuple(zip(*gram))

    def times(m: Matrix, v: Vector) -> list[int]:  # m·vᵀ
        return [sum(map(mul, r, v)) for r in m]

    def dot(u, v) -> int:
        return sum(map(mul, u, v)) % d

    rem = [tuple(1 if j == i else 0 for j in range(width)) for i in range(width)]
    out: list[Vector] = []
    columns: list[list[int]] = []  # gram·vᵀ for each v of out
    while rem:
        v = rem[0]
        vg = times(transposed, v)  # v·gram
        j = next(i for i in range(1, len(rem)) if dot(vg, rem[i]))
        inv = pow(dot(vg, rem[j]), -1, d)
        w = tuple((inv * x) % d for x in rem[j])
        gv, gw = times(gram, v), times(gram, w)
        out.extend([v, w])
        columns.extend([gv, gw])
        projected = []
        for i, u in enumerate(rem):
            if i not in (0, j):
                cv, cw = dot(u, gw), dot(u, gv)
                projected.append(tuple((a - cv * b + cw * c) % d for a, b, c in zip(u, v, w)))
        rem = list(algebra.rref(tuple(projected), spec))
    if tuple(tuple(dot(u, c) for c in columns) for u in out) != target:
        raise NotSymplecticBasis("hyperbolic basis change failed")
    # Column 2i of C is gram·f_iᵀ and column 2i + 1 is -gram·e_iᵀ.
    signed = []
    for e, f in zip(columns[::2], columns[1::2]):
        signed += [[x % d for x in f], [-x % d for x in e]]
    return tuple(zip(*signed))


def _powers(f: Vector, d: int, count: int) -> list[Vector]:
    """t^0, t^1, ..., t^(count-1) in F_d[t]/(f), for f monic of degree N,
    little-endian.  Each step shifts and reduces: v·t = (0, v_0, ...,
    v_{N-2}) - v_{N-1}·f."""
    n = len(f) - 1
    rows = [(1,) + (0,) * (n - 1)]
    while len(rows) < count:
        *head, c = rows[-1]
        rows.append(tuple((a - c * b) % d for a, b in zip((0, *head), f)))
    return rows


def _field_modulus(d: int, n: int) -> Vector:
    """The least monic irreducible f of degree N over F_d, little-endian.

    Candidates are scanned in ascending order of the base-d value of their
    lower coefficients, constant term least significant.  A reducible f of
    degree N is a product of two monic factors whose degrees sum to N, so
    the lesser has degree at most N/2.  So f is irreducible iff no monic y
    of degree 1..⌊N/2⌋ divides it: the remainder of f by y, long division
    mod d in integers (y is monic, so no inverse is needed), is never 0."""
    monic = [
        tail + (1,)
        for k in range(1, n // 2 + 1)
        for tail in itertools.product(range(d), repeat=k)
    ]
    for value in range(d**n):
        f = tuple(value // d**i % d for i in range(n)) + (1,)
        if not any(_divides(y, f, d) for y in monic):
            return f
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{d}")


def _divides(y: Vector, f: Vector, d: int) -> bool:
    """Whether y, monic of degree k, divides f over F_d: long division
    leaves the remainder in the k low coefficients."""
    r, k = list(f), len(y) - 1
    for top in range(len(f) - 1, k - 1, -1):
        c = r[top]
        if c:
            for i in range(k):
                r[top - k + i] = (r[top - k + i] - c * y[i]) % d
    return not any(r[:k])


def _trace_gram(f: Vector, d: int) -> Matrix:
    """Gram matrix of the trace form Tr(x1 y2 - x2 y1) on F_{d^N}^2, where
    F_{d^N} = F_d[t]/(f), in the basis (t^i, 0) then (0, t^j), i, j < N.
    Tr(t^k) is the trace of multiplication by t^k, the sum over j of the
    t^j coefficient of t^(j+k), so it lies in F_d by construction."""
    n = len(f) - 1
    powers = _powers(f, d, 3 * n - 2)
    trace = [sum(powers[j + k][j] for j in range(n)) % d for k in range(2 * n - 1)]
    zero = (0,) * n
    top = [zero + tuple(trace[i + j] for j in range(n)) for i in range(n)]
    bottom = [tuple(-trace[i + j] % d for j in range(n)) + zero for i in range(n)]
    return tuple(top + bottom)


def construct_symplectic_spread(space: PolarSpace) -> PartialSpread:
    """The regular spread of W_{2N-1}(d) by field reduction from F_{d^N}^2.

    F_{d^N} is F_d[t]/(f) for the modulus f = `_field_modulus(d, N)`, and an
    element y enters only through its multiplication matrix M_y over F_d,
    whose row r is y·t^r.  The trace form Tr(x1 y2 - x2 y1) on F_{d^N}^2 is
    a non-degenerate alternating F_d-form whose isotropic F_{d^N}-lines are
    the d^N + 1 members: the row spaces of [I | M_y], one per y, and of
    [0 | I].  With C the matrix of `_symplectic_coordinates` and C_top,
    C_bottom its first and last N rows, their canonical bases are
    [I | M_y]·C = C_top + M_y·C_bottom and [0 | I]·C = C_bottom.  Every M_y
    comes from one integer product, M_y = Σ y_k·M_{t^k}, the table of every
    y times the N matrices M_{t^k}, whose row r is t^(k+r); one batched
    product by C_bottom then gives every member's basis.  Each entry is a
    sum of at most 2N products of residues, far inside int64.
    """
    d, n = space.d, space.n
    f = _field_modulus(d, n)
    C = np.array(_symplectic_coordinates(_trace_gram(f, d), space.form, space.field))
    powers = _powers(f, d, 2 * n - 1)
    shifts = np.array([powers[k : k + n] for k in range(n)]).reshape(n, n * n)
    ys = np.array(list(itertools.product(range(d), repeat=n)))
    M = (ys @ shifts % d).reshape(-1, n, n)
    bases = [*((M @ C[n:] + C[:n]) % d).tolist(), C[n:].tolist()]
    members = [space.generator_by_basis(rows).gen_index for rows in bases]
    ps = partial_spread(space, members)
    if not ps.is_spread:
        raise NotASpread(f"field reduction gave {ps.size} members, not a spread")
    return ps


# --------------------------------------------------------------------------
# Regularity.
# --------------------------------------------------------------------------


def check_regularity(s: PartialSpread) -> bool:
    """Spread regularity: for any three members, exactly d - 2 further
    members meet every ambient line that meets all three.  In order 2 that
    is none: the three members are the whole regulus."""
    if not s.is_spread:
        raise NotASpread("regularity is defined for spreads")
    return next(_unclosed_triples(s), None) is None


def _unclosed_triples(s: PartialSpread) -> Iterator[tuple[int, int, int]]:
    """The member positions a < b < c of the triples that are not
    regulus-closed: d + 1 members do not meet every ambient line meeting a,
    b and c.

    Fix a, with rref rows A_j.  a is its own perp and meets any other member
    m only in 0, so on m the forms F(A_j, ·) are coordinates: row i of R_m,
    the basis of m on which they read the unit vectors, spans the one point
    of m in the cut ⋂_{j≠i} A_j⊥, and is scaled by F(A_i, ·)⁻¹.  Write c as
    the graph of φ: a → b.  The lines meeting a, b and c are ⟨x, φ(x)⟩, x in
    a, and a member m ≠ a, b, the graph of ψ, meets them all exactly when
    every vector is an eigenvector of φ⁻¹ψ, that is when ψ = s·φ, s ≠ 0.  So
    (a, b, c) is closed exactly when every graph of s·φ is a member.  The
    rows of R_c − R_b lie in a⊥ = a and φ sends them to those of R_b, so the
    graph of s·φ is the row space of t·R_c + (1 − t)·R_b, t = 1/s: t = 0
    gives b and t = 1 gives c.  The triple is closed exactly when, for each
    t from 2 to d − 1, those N rows lie on one member, read off by one gather
    through `member_positions()[index_of]`, where k means none.  No product
    exceeds (d − 1)^d < 2⁶³ before it is reduced, and a sum of two residues
    is reduced by table, so the test is exact.  A cut that does not hold
    exactly one point of m, or whose point lies in A_i⊥, raises
    `CatalogMismatch`: the perp masks are not this space's."""
    space = s.space
    d, n, k = space.d, space.n, s.size
    if k < 3:
        return
    gens, perp = space.generators, space.perp_masks
    A = np.array([gens[m].basis for m in s.members])
    FA = A @ np.array(space.form) % d  # F(A_i, x) = FA[i] · x
    on = s.member_positions()[space.index_of]
    mod = np.arange(2 * d) % d
    later = np.triu(np.ones((k, k), dtype=bool), 1)
    for a in range(k - 2):
        # An rref row leads with a 1, so it is the point it spans; -1 has
        # every bit set, so the cut of N = 1 is every point.
        perps = [perp[p] for p in space.index_of[A[a] @ space.weights].tolist()]
        cuts = [reduce(and_, perps[:i] + perps[i + 1 :], -1) for i in range(n)]
        points = []
        for m in s.members[a + 1 :]:
            for cut in cuts:
                x = gens[m].point_mask & cut
                if x.bit_count() != 1:
                    raise CatalogMismatch(f"a perp cut holds {x.bit_count()} points of a member, not one")
                points.append(x.bit_length() - 1)
        X = space.coords[points].reshape(-1, n, 2 * n)
        f = (X * FA[a]).sum(2) % d
        if not f.all():
            raise CatalogMismatch("a perp cut point lies in the first member's perp")
        # tR[t] holds t·R_m for the members m after a, R_m = X_m scaled by
        # f⁻¹ = f^(d − 2); tR[1 − t], counted from the end, is (1 − t)·R_m.
        tR = np.arange(d)[:, None, None, None] * (f ** (d - 2))[..., None] * X % d
        unclosed = np.zeros((len(X), len(X)), dtype=bool)
        for t in range(2, d):
            hit = on[mod[tR[1 - t][:, None] + tR[t]] @ space.weights]
            unclosed |= hit[..., 0] == k
            for i in range(1, n):
                unclosed |= hit[..., i] != hit[..., 0]
        for b, c in np.argwhere(unclosed & later[a + 1 :, a + 1 :]).tolist():
            yield a, a + 1 + b, a + 1 + c


# --------------------------------------------------------------------------
# Spread surgery: T(U), its completion, partner lines, the block swap.
# --------------------------------------------------------------------------


def construct_TU(s: PartialSpread, u) -> PartialSpread:
    """Remove the members meeting u, insert u: size drops to d^2 - d + 1."""
    space = s.space
    u = space.generator(u)
    if u.gen_index in s.members:
        raise GeneratorInSpread("u already belongs to the spread")
    meets = set(members_meeting(s, u))
    keep = [m for m in s.members if m not in meets]
    return partial_spread(space, keep + [u.gen_index])


def complete_TU(tu: PartialSpread) -> tuple[PartialSpread, CompletenessCert]:
    """Adjoin the unique disjoint line when one exists, then certify."""
    space = tu.space
    extensions = [
        g.gen_index
        for g in space.generators
        if not g.point_mask & tu.coverage
    ]
    if len(extensions) > 1:
        raise AmbiguousPartner(
            f"{len(extensions)} disjoint extensions; input was not cut from a spread"
        )
    final = partial_spread(space, tu.members + tuple(extensions))
    return final, is_complete(final)


def members_meeting(s: PartialSpread, g) -> list[int]:
    # The members were range-checked when the partial spread was built.
    mask = s.space.generator(g).point_mask
    gens = s.space.generators
    return [m for m in s.members if gens[m].point_mask & mask]


def pair_partner(s: PartialSpread, x) -> Generator:
    """The unique other line Y with S_X = S_Y, via common transversals.
    Kept for the README T(U) result: in odd order, the line `complete_TU`
    adjoins to T(X) is X's partner."""
    space = s.space
    x = space.generator(x)
    if x.gen_index in s.members:
        raise GeneratorInSpread("x must lie outside the spread")
    sx = [space.generator(m) for m in members_meeting(s, x)]
    trans = polar.common_transversals(sx, space)
    partners = [t for t in trans if t.gen_index != x.gen_index]
    if not partners:
        raise NoPartner("no partner line; order is even or the spread is not classical")
    if len(partners) > 1:
        raise AmbiguousPartner(f"{len(partners)} partner candidates")
    y = partners[0]
    if members_meeting(s, y) != [g.gen_index for g in sx]:
        raise NoPartner("the transversal candidate meets other members than x")
    return y


def transversal_blocks(s: PartialSpread, l_idx, m_idx):
    """The lines of {L,M}^perp grouped into partner pairs by their member
    sets.  Validates the pairing structure: the partner map is a
    fixed-point-free involution and distinct blocks share exactly {L, M}."""
    space = s.space
    L = space.generator(l_idx)
    M = space.generator(m_idx)
    cross = polar.common_transversals([L, M], space)
    by_block: dict[frozenset, list[int]] = {}
    for x in cross:
        key = frozenset(members_meeting(s, x))
        by_block.setdefault(key, []).append(x.gen_index)
    blocks = []
    for key, pair in by_block.items():
        if len(pair) != 2:
            raise AmbiguousPartner(
                f"partner pairing is not an involution (block of size {len(pair)})"
            )
        blocks.append((key, tuple(sorted(pair))))
    for (k1, _), (k2, _) in itertools.combinations(blocks, 2):
        if k1 & k2 != {L.gen_index, M.gen_index}:
            raise NotDisjoint("distinct blocks must intersect exactly in {L, M}")
    blocks.sort(key=lambda item: item[1])
    return blocks


def construct_SR(s: PartialSpread, l_idx, m_idx, k: int) -> PartialSpread:
    """Swap the first k + 1 transversal blocks of {L,M}^perp into the spread.

    Removes every member meeting a chosen transversal pair and inserts the
    2(k + 1) transversal lines themselves.  Each block holds d + 1 members
    and distinct blocks share exactly {L, M}, so on a spread of d^2 + 1
    lines the swap removes (k + 1)(d + 1) - 2k members and adds 2(k + 1),
    leaving d^2 - (k + 1)d + 3k + 2.  The construction does not imply
    completeness; the caller certifies it with `is_complete`.  k is an int
    or numpy integer; a bool or other type raises `TypeError`.
    """
    k = _integer(k, "k")
    space = s.space
    if space.n != 2:
        raise NotRankTwo("the block swap lives in W_3")
    if space.d == 2:
        raise BadK("odd order required")
    L, M = space.generator(l_idx), space.generator(m_idx)
    if L == M or L.gen_index not in s.members or M.gen_index not in s.members:
        raise GeneratorInSpread("L and M must be distinct members of the spread")
    if not 0 <= k <= (space.d - 3) // 2:
        raise BadK(f"k must lie in [0, {(space.d - 3) // 2}]")
    blocks = transversal_blocks(s, L, M)
    chosen = blocks[: k + 1]
    removed = set()
    added = []
    for key, pair in chosen:
        removed |= key
        added.extend(pair)
    keep = [m for m in s.members if m not in removed]
    return partial_spread(space, keep + added)


# --------------------------------------------------------------------------
# U-sets and the unextendible families they seed.
# --------------------------------------------------------------------------


def _partitionable_with(space: PolarSpace, omega: int, chi: Generator) -> bool:
    """Exact-cover search: can omega be partitioned by disjoint generators
    contained in it, one of which is chi?"""
    cands = [
        g
        for g in space.generators
        if g.point_mask & omega == g.point_mask and g.gen_index != chi.gen_index
    ]
    by_point: dict[int, list[Generator]] = {}
    points = space.generator_points
    for g in cands:
        for p in points[g.gen_index].tolist():
            by_point.setdefault(p, []).append(g)

    def cover(done: int) -> bool:
        if done == omega:
            return True
        rest = omega & ~done
        low = (rest & -rest).bit_length() - 1
        for g in by_point.get(low, ()):
            if not g.point_mask & done:
                if cover(done | g.point_mask):
                    return True
        return False

    found = cover(chi.point_mask)
    # cover calls itself through its closure; break that cycle so that its
    # lists are freed on return, not at the next full collection.
    del cover
    return found


def construct_U_set(s: PartialSpread, chi=None) -> USet:
    """Build a U-set from a regular spread.

    The carrier chi meets one member alpha in an (N-2)-space; alpha is
    traded for a generator beta through chi ∩ alpha that avoids the other
    members meeting chi.  The generators through chi ∩ alpha are those whose
    point mask contains its points, d + 1 of them in catalog order, a count
    that is checked.  The no-repartition property is then verified by
    exhaustive exact-cover search, not assumed.  When the traded set fails
    that verification (as it does for every carrier at W_3(2) and W_5(2),
    though at W_7(2) every carrier that meets exactly one member in an
    (N-2)-space returns the traded set), the untraded member set itself is
    tested for the same property and returned when it passes; either way
    the returned members satisfy every U-set requirement by machine check.
    """
    space = s.space
    if chi is None:
        in_s = set(s.members)
        for g in space.generators:
            if g.gen_index in in_s:
                continue
            try:
                return construct_U_set(s, g)
            except (NoSuitableChi, NoBeta):
                continue
        raise NoSuitableChi("no carrier works for this spread")

    chi = space.generator(chi)
    if chi.gen_index in s.members:
        raise NoSuitableChi("carrier must lie outside the spread")
    r_chi = members_meeting(s, chi)
    # Two generators meet in an (N-2)-space exactly when they share its
    # (d^{N-1} - 1)/(d - 1) points.
    deep_points = (space.d ** (space.n - 1) - 1) // (space.d - 1)
    deep = []
    for m in r_chi:
        meet = chi.point_mask & space.generator(m).point_mask
        if meet.bit_count() == deep_points:
            deep.append((m, meet))
    if space.n == 2:
        if not deep:
            raise NoSuitableChi("carrier meets no member")
    elif len(deep) != 1:
        raise NoSuitableChi(
            f"carrier meets {len(deep)} members in an (N-2)-space, need exactly 1"
        )
    alpha, meet = deep[0]
    through = [g for g in space.generators if g.point_mask & meet == meet]
    if len(through) != space.d + 1:
        raise CatalogMismatch(f"{len(through)} generators through chi ∩ alpha, not d + 1")
    rest = [m for m in r_chi if m != alpha]
    rest_mask = 0
    for m in rest:
        rest_mask |= space.generator(m).point_mask
    candidates = [
        g
        for g in through
        if g.gen_index not in (chi.gen_index, alpha)
        and not g.point_mask & rest_mask
    ]
    if not candidates:
        raise NoBeta("no generator through chi ∩ alpha avoids the other members")
    beta = candidates[0]
    traded = partial_spread(space, rest + [beta.gen_index])
    if chi.point_mask & traded.coverage != chi.point_mask:
        raise NoBeta("the traded members do not cover the carrier")
    if not _partitionable_with(space, traded.coverage, chi):
        return USet(traded, chi.gen_index)
    untraded = partial_spread(space, r_chi)
    if not _partitionable_with(space, untraded.coverage, chi):
        return USet(untraded, chi.gen_index)
    raise NoSuitableChi("covered point set admits a repartition through the carrier")


def unextendible_from_Uset(
    s: PartialSpread, u: USet
) -> tuple[PartialSpread, CompletenessCert]:
    """Trade the members meeting the carrier for the carrier (`construct_TU`,
    so a carrier in the spread raises `GeneratorInSpread`), then add the
    lowest-index `is_complete` witness until none is left.  The U-set property
    forbids reaching a spread, so the result is a proper partial spread."""
    final = construct_TU(s, u.carrier)
    while not (cert := is_complete(final)).complete:
        final = partial_spread(s.space, final.members + (cert.witness,))
    if final.is_spread:
        raise NoSuitableChi("completion reached a spread; the input is not a U-set")
    return final, cert


# --------------------------------------------------------------------------
# Exhaustive search and isomorphism classification.
# --------------------------------------------------------------------------


def search_maximal(
    space: PolarSpace, mode: str = "exhaustive", size: int | None = None
) -> list[PartialSpread]:
    """Complete partial spreads: the maximal cliques of the disjointness graph.

    "exhaustive" returns every complete partial spread; "first_of_size"
    returns the first complete partial spread with exactly `size` members
    (empty list when none exists).  Results come in lexicographic order of
    their member tuples.  `size` must be an int or numpy integer; a bool or
    other non-integer is refused with `TypeError`.

    "exhaustive" is Bron–Kerbosch with pivoting.  A node holds `cand`, the
    generators that can still be added, and `met`, those that can no longer
    be added but that a maximal result must still meet.  The pivot u is the
    lowest of `met`, or of `cand` when `met` is empty; every maximal result
    below the node contains u or a generator meeting u, so the node branches
    only over the candidates that share a point with u.  A result is
    recorded when `cand` and `met` are both empty.  The branches find each
    maximal clique once, in no useful order, so the results are sorted by
    member tuple at the end.

    "first_of_size" is a lexicographic search over increasing generator
    indices, so its first hit is the lex-least result.  At a node, `cand`
    holds every generator disjoint from all members and `reach` the ones
    after the last member; only those can still be added, so a child whose
    `reach` is too small for `size` is not entered.  A skipped candidate
    (in `cand` but not `reach`) leaves `cand` only if a later member meets
    it, so once one is disjoint from all of `reach` no leaf below reaches
    `cand == 0`, and the branch ends.  Every later member is at or after
    the next one, so the next member lies at or before the last generator
    of `reach` that meets a skipped candidate: the node tries only `above`,
    the generators of `reach` up to that bound.  A sibling that was tried is
    a skipped candidate for the siblings after it, which lowers the bound
    again.  The parent applies these cuts before it descends, so a cut
    child is never visited.  They remove only subtrees that hold no result
    of that size, so the first hit is that of the full tree.

    For a size of at least 2, "first_of_size" searches one branch of that
    tree: the results whose first two members are generator 0 and j*, the
    lowest generator disjoint from 0.  It is the first branch the full
    search enters, so a hit there is the full search's answer and needs no
    certificate.  A result with members 0 and j* has them first, since its
    other members are disjoint from 0 and so come after j*.  If the branch
    holds no hit, [] is returned only once `PolarSpace.disjoint_pair_orbit`
    has certified that every ordered pair of disjoint generators is an
    image of (0, j*) under the group, and `CatalogMismatch` is raised if it
    does not hold.  Witt's theorem promises that it does, since two
    complementary Lagrangians extend to a symplectic basis.  The group maps
    complete partial spreads to complete partial spreads of the same size,
    and any result contains a disjoint pair, so some image of it contains 0
    and j* and lies in the branch.

    Each descent checks that the new member is disjoint from the points
    already covered.  Members are pairwise disjoint with (d^N - 1)/(d - 1)
    points each, out of (d^{2N} - 1)/(d - 1) = (d^N + 1)(d^N - 1)/(d - 1)
    points, so no partial spread has more than d^N + 1 members, and
    "first_of_size" answers a larger size with [] at once.
    """
    if mode not in ("exhaustive", "first_of_size"):
        raise ValueError(f"unknown search mode {mode!r}")
    if size is not None:
        size = _integer(size, "size")
    if mode == "exhaustive" and size is not None:
        raise ValueError("exhaustive search takes no size")
    if mode == "first_of_size" and size is None:
        raise ValueError("first_of_size needs a size")
    if mode == "first_of_size" and size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    if mode == "exhaustive" and (space.d, space.n) not in EXHAUSTIVE_SPACES:
        raise ScaleExceeded("exhaustive search supported for W_3(2), W_3(3), W_5(2)")
    if mode == "first_of_size" and size > space.d**space.n + 1:
        return []
    adj = space.disjoint_adjacency
    masks = [g.point_mask for g in space.generators]
    every = (1 << len(masks)) - 1
    meet = [every & ~a for a in adj]  # generators sharing a point, self included
    members: list[int] = []
    results: list[PartialSpread] = []

    def pivot(cand: int, met: int, cover: int) -> None:
        # Bron–Kerbosch below `members`, whose points are `cover`.
        low = met & -met or cand & -cand
        branch = cand & meet[low.bit_length() - 1]
        while branch:
            low = branch & -branch
            branch ^= low
            j = low.bit_length() - 1
            if cover & masks[j]:
                raise NotDisjoint(f"member {j} meets an earlier member")
            members.append(j)
            child, child_met = cand & adj[j], met & adj[j]
            if child:
                pivot(child, child_met, cover | masks[j])
            elif not child_met:
                results.append(PartialSpread(space, tuple(sorted(members)), cover | masks[j]))
            members.pop()
            cand ^= low
            met |= low

    def lex(cand: int, reach: int, above: int, cover: int) -> bool:
        # Extend `members`, whose candidates are `cand` and points `cover`.
        while above:
            low = above & -above
            above ^= low
            j = low.bit_length() - 1
            if cover & masks[j]:
                raise NotDisjoint(f"member {j} meets an earlier member")
            members.append(j)
            child = cand & adj[j]
            if not child:
                if len(members) == size:
                    results.append(PartialSpread(space, tuple(members), cover | masks[j]))
                    return True
            elif len(members) < size <= len(members) + (child >> (j + 1)).bit_count():
                higher = child >> (j + 1) << (j + 1)
                skipped = child ^ higher
                bound = higher
                while skipped:
                    bit = skipped & -skipped
                    hits = higher & meet[bit.bit_length() - 1]
                    if not hits:
                        break
                    bound &= (1 << hits.bit_length()) - 1
                    skipped ^= bit
                else:
                    if bound and lex(child, higher, bound, cover | masks[j]):
                        return True
            members.pop()
            above &= (1 << (reach & meet[j]).bit_length()) - 1
        return False

    if mode == "exhaustive":
        pivot(every, 0, 0)
        results.sort(key=lambda p: p.members)
    elif size == 1:
        lex(every, every, every, 0)
    else:
        # Only the first branch, generators 0 and j*; the certificate
        # stands for the others.
        members.append(0)
        if not lex(adj[0], adj[0], adj[0] & -adj[0], masks[0]):
            space.disjoint_pair_orbit  # CatalogMismatch unless it holds
    # Both searches call themselves through their closures; break those
    # cycles so that `results` is freed on return, not at the next full
    # collection.
    del pivot, lex
    return results


def classify_iso(
    space: PolarSpace, spreads: list[PartialSpread]
) -> list[PartialSpread]:
    """Orbit representatives of partial spreads under Sp(2N, d).

    A spread's key, the least sorted member tuple in its orbit under the
    4N − 1 transvections of `polar.symplectic_generators`, lifted to
    generators once per space (`PolarSpace.transvection_lift`), is its least
    image over the whole group, which is never enumerated.  The first input
    spread of each orbit represents it, and the output is sorted by key.  A
    partial spread of another (d, N) raises `DimensionMismatch`."""
    for ps in spreads:
        if (ps.space.d, ps.space.n) != (space.d, space.n):
            raise DimensionMismatch(f"a partial spread lies in {ps.space!r}, not in {space!r}")
    perms = space.transvection_lift

    def images(members):
        return (tuple(sorted(perm[m] for m in members)) for perm in perms)

    keys: dict[tuple[int, ...], tuple[int, ...]] = {}
    reps: dict[tuple[int, ...], PartialSpread] = {}
    for ps in spreads:
        if ps.members not in keys:
            found = polar.orbit(ps.members, images)
            keys.update(dict.fromkeys(found, min(found)))
        reps.setdefault(keys[ps.members], ps)
    return [reps[k] for k in sorted(reps)]


def repartition_triple(ps: PartialSpread) -> PartialSpread:
    """Opposite regulus of an unextendible triple in W_3(2): three new lines
    on the same nine points, each meeting each original line once.  Kept for
    acceptance 4."""
    space = ps.space
    if (space.d, space.n) != (2, 2) or ps.size != 3 or not is_complete(ps).complete:
        raise NotUnextendibleTriple("need a complete triple in W_3(2)")
    trans = polar.common_transversals(ps.member_generators(), space)
    if len(trans) != 3:
        raise NotUnextendibleTriple("triple admits no opposite regulus")
    return partial_spread(space, [t.gen_index for t in trans])

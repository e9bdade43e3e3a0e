"""Partial spreads of W_{2N-1}(d): constructions, completeness, search.

A partial spread is held as a sorted tuple of generator indices plus the
union bitmask of the points it covers.  Completeness (maximality) of a
partial spread is always decided by a full scan of the generator catalog,
never inferred from a construction, so every certificate is a machine
check rather than a citation.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import algebra, polar
from .algebra import Matrix, Vector
from .errors import (
    AmbiguousPartner,
    BadK,
    CatalogMismatch,
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
        point that no member covers."""
        table = np.full(self.space.num_points, self.size)
        for i, g in enumerate(self.member_generators()):
            table[self.space.point_indices(g.point_mask)] = i
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


def _symplectic_coordinates(
    gram: Matrix, target: Matrix, spec: algebra.FieldSpec
) -> Callable[[Vector], Vector]:
    """a ↦ a·P⁻¹, for P the rows e1, f1, e2, f2, ... hyperbolic for the form
    B of the given Gram matrix, with P·gram·Pᵀ = target, the canonical form,
    checked.  Since target·targetᵀ = I, P⁻¹ = gram·Pᵀ·targetᵀ, which sends a
    to (B(a, f1), -B(a, e1), B(a, f2), -B(a, e2), ...)."""
    d = spec.d
    width = len(gram)

    def form(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(width) for j in range(width)) % d

    rem = [tuple(1 if j == i else 0 for j in range(width)) for i in range(width)]
    out: list[tuple[int, ...]] = []
    while rem:
        v = rem[0]
        j = next(i for i in range(1, len(rem)) if form(v, rem[i]))
        w = rem[j]
        inv = pow(form(v, w), -1, d)
        w = tuple((inv * x) % d for x in w)
        out.extend([v, w])
        projected = []
        for i, u in enumerate(rem):
            if i in (0, j):
                continue
            cv, cw = form(u, w), form(u, v)
            u2 = tuple((u[t] - cv * v[t] + cw * w[t]) % d for t in range(width))
            projected.append(u2)
        rem = list(algebra.rref(tuple(projected), spec))
    if tuple(tuple(form(u, v) for v in out) for u in out) != target:
        raise NotSymplecticBasis("hyperbolic basis change failed")
    # The columns gram·f1ᵀ, -gram·e1ᵀ, ..., so that a·column = ±B(a, ·).
    columns = [
        tuple(sign * sum(g * x for g, x in zip(row, v)) % d for row in gram)
        for e, f in zip(out[::2], out[1::2])
        for v, sign in ((f, 1), (e, -1))
    ]
    return lambda a: tuple(sum(x * c for x, c in zip(a, col)) % d for col in columns)


def _times_t(v: Vector, count: int, f: Vector, d: int) -> list[Vector]:
    """v, v·t, ..., v·t^(count-1) in F_d[t]/(f), for f monic of degree N.
    Each step shifts and reduces: v·t = (0, v_0, ..., v_{N-2}) - v_{N-1}·f.
    With count = N these are the rows of the multiplication matrix of v."""
    rows = [tuple(v)]
    while len(rows) < count:
        *head, c = rows[-1]
        rows.append(tuple((a - c * b) % d for a, b in zip((0, *head), f)))
    return rows


def _field_modulus(d: int, n: int) -> Vector:
    """The least monic irreducible f of degree N over F_d, little-endian.

    Candidates are scanned in ascending order of the base-d value of their
    lower coefficients, constant term least significant.  f is reducible
    exactly when it has a monic factor y of degree at most N/2, and such a y
    is a zero divisor of F_d[t]/(f), since y·(f/y) = f = 0 there with f/y of
    degree below N.  So f is irreducible iff the multiplication matrix of
    every monic y of degree 1..⌊N/2⌋ has full rank N."""
    spec = algebra.FieldSpec(d)
    monic = [
        tail + (1,) + (0,) * (n - k - 1)
        for k in range(1, n // 2 + 1)
        for tail in itertools.product(range(d), repeat=k)
    ]
    for value in range(d**n):
        f = tuple(value // d**i % d for i in range(n)) + (1,)
        if all(len(algebra.rref(_times_t(y, n, f, d), spec)) == n for y in monic):
            return f
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{d}")


def _trace_gram(f: Vector, d: int) -> Matrix:
    """Gram matrix of the trace form Tr(x1 y2 - x2 y1) on F_{d^N}^2, where
    F_{d^N} = F_d[t]/(f), in the basis (t^i, 0) then (0, t^j), i, j < N.
    Tr(t^k) is the trace of multiplication by t^k, the sum over j of the
    t^j coefficient of t^(j+k), so it lies in F_d by construction."""
    n = len(f) - 1
    powers = _times_t((1,) + (0,) * (n - 1), 3 * n - 2, f, d)
    trace = [sum(powers[j + k][j] for j in range(n)) % d for k in range(2 * n - 1)]
    zero = (0,) * n
    top = [zero + tuple(trace[i + j] for j in range(n)) for i in range(n)]
    bottom = [tuple(-trace[i + j] % d for j in range(n)) + zero for i in range(n)]
    return tuple(top + bottom)


def construct_symplectic_spread(space: PolarSpace) -> PartialSpread:
    """The regular spread of W_{2N-1}(d) by field reduction from F_{d^N}^2.

    F_{d^N} is F_d[t]/(f) for the modulus f = `_field_modulus(d, N)`, and an
    element y enters only through its multiplication matrix M_y over F_d.
    The trace form Tr(x1 y2 - x2 y1) on F_{d^N}^2 is a non-degenerate
    alternating F_d-form whose isotropic F_{d^N}-lines are the d^N + 1
    members: the row spaces of [I | M_y], one per y, and of [0 | I].  A
    hyperbolic basis change carries them onto canonical coordinates, read
    off the trace form row by row by `_symplectic_coordinates`.
    """
    d, n = space.d, space.n
    spec = space.field
    f = _field_modulus(d, n)
    coordinates = _symplectic_coordinates(_trace_gram(f, d), space.form, spec)

    identity = _times_t((1,) + (0,) * (n - 1), n, f, d)
    blocks = [(identity, _times_t(y, n, f, d)) for y in itertools.product(range(d), repeat=n)]
    blocks.append((((0,) * n,) * n, identity))
    members = []
    for left, right in blocks:
        rows = tuple(coordinates(a + b) for a, b in zip(left, right))
        members.append(space.generator_by_basis(algebra.rref(rows, spec)).gen_index)
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
    b and c.  A line meeting two disjoint members meets each in one point,
    so those lines join a point of a to one of b."""
    space = s.space
    d, k = space.d, s.size
    member = s.member_positions()
    points = [np.flatnonzero(member == i) for i in range(k)]
    # The d + 1 points of the line through x and y: x + t·y for t in F_d, and y.
    coef = np.array([(1, t) for t in range(d)] + [(0, 1)])[:, :, None]
    for ia, ib in itertools.combinations(range(k), 2):
        x = space.coords[points[ia]][:, None, None, :]
        y = space.coords[points[ib]][None, :, None, :]
        lines = space.index_of[(coef[:, 0] * x + coef[:, 1] * y) % d @ space.weights]
        lines = lines.reshape(-1, d + 1)
        # M: lines × members incidence; C[c, m] counts lines meeting c and m.
        M = np.zeros((len(lines), k + 1), dtype=np.int64)
        M[np.arange(len(lines))[:, None], member[lines]] = 1
        C = M[:, :k].T @ M[:, :k]
        closed = np.count_nonzero(C == C.diagonal()[:, None], axis=1) == d + 1
        for ic in np.flatnonzero(~closed[ib + 1 :]) + ib + 1:
            yield ia, ib, int(ic)


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


def members_meeting(s: PartialSpread, g: Generator) -> list[int]:
    # The members were range-checked when the partial spread was built.
    gens = s.space.generators
    return [m for m in s.members if gens[m].point_mask & g.point_mask]


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
    completeness; the caller certifies it with `is_complete`.
    """
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
    for g in cands:
        for p in space.point_indices(g.point_mask):
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
    that verification (which provably happens for every carrier in order 2,
    where the trade argument needs d >= 3), the untraded member set itself
    is tested for the same property and returned when it passes; either
    way the returned members satisfy every U-set requirement by machine
    check.
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
        if bin(meet).count("1") == deep_points:
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
    """Trade the members meeting the carrier for the carrier, then add the
    lowest-index `is_complete` witness until none is left.  The U-set property
    forbids reaching a spread, so the result is a proper partial spread."""
    space = s.space
    chi = space.generator(u.carrier)
    r_chi = set(members_meeting(s, chi))
    final = partial_spread(space, [m for m in s.members if m not in r_chi] + [chi.gen_index])
    while not (cert := is_complete(final)).complete:
        final = partial_spread(space, final.members + (cert.witness,))
    if final.is_spread:
        raise NoSuitableChi("completion reached a spread; the input is not a U-set")
    return final, cert


# --------------------------------------------------------------------------
# Exhaustive search and isomorphism classification.
# --------------------------------------------------------------------------


def search_maximal(
    space: PolarSpace, mode: str = "exhaustive", size: int | None = None
) -> list[PartialSpread]:
    """Canonical backtracking over increasing generator indices.

    "exhaustive" returns every complete partial spread; "first_of_size"
    returns the first complete partial spread with exactly `size` members
    (empty list when none exists).  Results come in lexicographic order of
    their member tuples.

    At a node, `cand` holds every generator disjoint from all members and
    `above` the ones after the last member; only those can still be added.
    A skipped candidate (in `cand` but not `above`) leaves `cand` only if a
    later member meets it, so once one is disjoint from all of `above` no
    leaf below reaches `cand == 0`, and the branch ends.  This maximality
    cut removes only subtrees that hold no result, so the output and its
    order, and the first hit of "first_of_size", are those of the full tree.
    The parent tests each child against the cut and the size bound before
    it descends, so a cut child is never visited, and each descent checks
    that the new member is disjoint from the points already covered.

    Members are pairwise disjoint with (d^N - 1)/(d - 1) points each, out
    of (d^{2N} - 1)/(d - 1) = (d^N + 1)(d^N - 1)/(d - 1) points, so no
    partial spread has more than d^N + 1 members, and "first_of_size"
    answers a larger size with [] at once.
    """
    if mode not in ("exhaustive", "first_of_size"):
        raise ValueError(f"unknown search mode {mode!r}")
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
    exhaustive = mode == "exhaustive"
    members: list[int] = []
    results: list[PartialSpread] = []

    def dfs(cand: int, above: int, cover: int) -> bool:
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
                if exhaustive or len(members) == size:
                    results.append(PartialSpread(space, tuple(members), cover | masks[j]))
                    if not exhaustive:
                        return True
            elif exhaustive or len(members) < size <= len(members) + bin(child).count("1"):
                higher = child >> (j + 1) << (j + 1)
                skipped = child ^ higher
                while skipped:
                    bit = skipped & -skipped
                    if adj[bit.bit_length() - 1] & higher == higher:
                        break
                    skipped ^= bit
                else:
                    if dfs(child, higher, cover | masks[j]):
                        return True
            members.pop()
        return False

    every = (1 << len(masks)) - 1
    dfs(every, every, 0)
    # dfs calls itself through its closure; break that cycle so that
    # `results` is freed on return, not at the next full collection.
    del dfs
    return results


def classify_iso(
    space: PolarSpace, spreads: list[PartialSpread]
) -> list[PartialSpread]:
    """Orbit representatives of partial spreads under Sp(2N, d).

    A spread's key, the least sorted member tuple in its orbit under the
    4N − 1 transvections of `polar.symplectic_generators`, is its least image
    over the whole group, which is never enumerated.  The first input spread
    of each orbit represents it, and the output is sorted by key."""
    perms = polar.symplectic_generators(space)

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

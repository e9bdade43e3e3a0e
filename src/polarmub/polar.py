"""The symplectic polar space W_{2N-1}(d).

Points are the projective points of PG(2N-1, d), normalised so the first
nonzero coordinate is 1, indexed in lexicographic coordinate order.
Point sets are held as arbitrary-precision integer bitmasks over point
indices, so disjointness and coverage tests are single AND/OR operations.
Incidence comes from the perp mask of each point and from the point-code
table `index_of`, which maps each nonzero vector's code to its point.
Generators (maximal totally isotropic subspaces) are enumerated once each
by depth-first search over their greedy point bases, each point the least
of the generator outside the span S of those before it.  A point x outside
S is the least point of span(S, x) outside S exactly when x is 0 at the
leading coordinate of every point of the basis, and such an x is never in
S.  The points that are 0 at coordinate c are the perp of the unit point
e_{c xor 1}, so the search needs only AND-ed perp masks, and the last point
closes the generator as its own perp.  The leads of a greedy basis are
distinct, so they are the pivots of the generator's rref basis.  The rref
row at x's lead is the one point of the generator that is 0 at every other
lead, since projection onto the leads is injective on the generator: its
point mask AND-ed with the masks of the points 0 at those leads, so no row
is reduced.  Later leads come first in point order, so these rows in
descending index order are the rref basis.  Generators are indexed in
lexicographic order of their rref basis.  The symplectic group acts only
on these indices: `transvections` gives one permutation per point,
`symplectic_generators` picks 4N − 1 of them, and `symplectic_group_order`
certifies the order of the group those generate by a Schreier–Sims base
and strong generating set, checked against the closed form |PSp(2N, d)|.
The group is never enumerated.

The catalog is built once per space, by whichever read comes first, and
the basis lookup of `generator_by_basis` is derived from it.  Every
module reads a caller's generator reference through `generator(ref)`: an
int or numpy integer index in range, or a `Generator` equal to this
catalog's entry at its index.  A bool or other non-integer raises
`TypeError`, an index outside the catalog `ValueError`, a `Generator` of
another catalog `DimensionMismatch`, and `generator_by_basis` raises
`ValueError` for rows that are no generator's rref basis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .algebra import FieldSpec, Matrix, Vector
from .errors import (
    CatalogMismatch,
    DimensionMismatch,
    NotDisjoint,
    NotRankTwo,
    ScaleExceeded,
)

POINT_LIMIT = 100_000
GENERATOR_LIMIT = 100_000


def point_count(d: int, n: int) -> int:
    """d^{2N-1} + d^{2N-2} + ... + 1"""
    return sum(d**i for i in range(2 * n))


def generator_count(d: int, n: int) -> int:
    """(d^N + 1)(d^{N-1} + 1) ... (d + 1)"""
    total = 1
    for i in range(1, n + 1):
        total *= d**i + 1
    return total


@dataclass(frozen=True)
class Generator:
    gen_index: int
    basis: Matrix
    point_mask: int


class PolarSpace:
    """W_{2N-1}(d) with its canonical alternating form and catalogs.

    Immutable after construction; the generator catalog is built lazily on
    first use.  Only prime orders are supported in this version.
    """

    def __init__(self, d: int, n: int):
        if n < 1:
            raise ValueError("rank n must be at least 1")
        # Refuse before building anything: the points scan all d^{2n} vectors.
        # For d >= 2 there are over 2^{2n-1} points, so a rank above the
        # limit's bit length is refused before any power of d is formed.
        if n > POINT_LIMIT.bit_length() or point_count(d, n) > POINT_LIMIT:
            raise ScaleExceeded(f"too many points for W_{2*n-1}({d})")
        self.field = FieldSpec(d)
        self.d = d
        self.n = n
        self.dim = 2 * n
        self.form: Matrix = self._build_form()
        # Points lead with a 1; lexicographic order lists later leads first.
        self.points: tuple[Vector, ...] = tuple(
            (0,) * c + (1,) + rest for c in reversed(range(self.dim))
            for rest in itertools.product(range(d), repeat=self.dim - 1 - c)
        )
        self.coords = np.array(self.points, dtype=np.int64)
        self.weights = d ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        # A vector's code is v @ weights, its base-d number; index_of[code] is
        # the point that v lies on, and -1 for the zero vector.
        self.index_of = np.full(d**self.dim, -1, dtype=np.int64)
        for a in range(1, d):
            self.index_of[a * self.coords % d @ self.weights] = np.arange(len(self.points))
        if np.count_nonzero(self.index_of < 0) != 1:
            raise CatalogMismatch(f"W_{2*n-1}({d}) points miss some vectors")
        self._generators: tuple[Generator, ...] | None = None
        self._perp_masks: tuple[int, ...] | None = None
        self._disjoint_adj: list[int] | None = None

    def __repr__(self):
        return f"PolarSpace(d={self.d}, n={self.n})"

    def _build_form(self) -> Matrix:
        J = [[0] * self.dim for _ in range(self.dim)]
        for i in range(0, self.dim, 2):
            J[i][i + 1] = 1
            J[i + 1][i] = self.d - 1
        return tuple(tuple(r) for r in J)

    # -- points

    @property
    def num_points(self) -> int:
        return len(self.points)

    def symp_form(self, u: Vector, v: Vector) -> int:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(f"vectors must have length {self.dim}")
        total = 0
        for i in range(0, self.dim, 2):
            total += u[i] * v[i + 1] - u[i + 1] * v[i]
        return total % self.d

    def point_indices(self, mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    # -- incidence

    @property
    def perp_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set iff F(point i, point j) = 0."""
        if self._perp_masks is None:
            JPt = np.array(self.form, dtype=np.int64) @ self.coords.T
            bits = (np.packbits(p @ JPt % self.d == 0, bitorder="little") for p in self.coords)
            self._perp_masks = tuple(int.from_bytes(b, "little") for b in bits)
        return self._perp_masks

    @property
    def disjoint_adjacency(self) -> list[int]:
        """Bit j of entry i is set iff generators i and j share no point."""
        if self._disjoint_adj is None:
            gen_points = [self.point_indices(g.point_mask) for g in self.generators]
            # through[p] is the mask of the generators on point p, set bit by
            # bit in a bytearray and converted once.
            rows = [bytearray((len(gen_points) + 7) // 8) for _ in range(self.num_points)]
            for i, pts in enumerate(gen_points):
                for p in pts:
                    rows[p][i >> 3] |= 1 << (i & 7)
            through = [int.from_bytes(row, "little") for row in rows]
            full = (1 << len(gen_points)) - 1
            adj = []
            for pts in gen_points:
                meets = 0
                for p in pts:
                    meets |= through[p]
                adj.append(full & ~meets)
            self._disjoint_adj = adj
        return self._disjoint_adj

    # -- generators

    @property
    def generators(self) -> tuple[Generator, ...]:
        if self._generators is None:
            self._generators = self._enumerate_generators()
        return self._generators

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def generator(self, ref) -> Generator:
        """The catalog entry that ref names: an int or numpy integer index in
        range, or a `Generator` equal to the entry at its index.  A bool or
        other non-integer is refused with `TypeError`, an index outside the
        catalog with `ValueError`, and a `Generator` of another catalog with
        `DimensionMismatch`."""
        gens = self.generators
        if isinstance(ref, Generator):
            i = ref.gen_index
            if not (0 <= i < len(gens) and gens[i] == ref):
                raise DimensionMismatch(
                    f"{ref.basis} is not generator {i} of W_{self.dim - 1}({self.d})"
                )
            return gens[i]
        if isinstance(ref, bool) or not isinstance(ref, (int, np.integer)):
            raise TypeError(f"a generator must be an integer index or a Generator, got {ref!r}")
        if not 0 <= ref < len(gens):
            raise ValueError(f"generator index {ref} outside [0, {len(gens)})")
        return gens[ref]

    def generator_by_basis(self, basis: Matrix) -> Generator:
        """The generator with this rref basis; `ValueError` if there is none."""
        index = self._gen_lookup.get(basis)
        if index is None:
            raise ValueError(f"rows {basis} do not span a generator of W_{self.dim - 1}({self.d})")
        return self.generators[index]

    @functools.cached_property
    def _gen_lookup(self) -> dict[Matrix, int]:
        return {g.basis: g.gen_index for g in self.generators}

    def _enumerate_generators(self) -> tuple[Generator, ...]:
        d, n = self.d, self.n
        expected = generator_count(d, n)
        if expected > GENERATOR_LIMIT:
            raise ScaleExceeded(
                f"W_{2*n-1}({d}) has {expected} generators; enumeration refused"
            )
        perp = self.perp_masks
        # vanish[x] holds the points that are 0 at the leading coordinate c of
        # x: the perp of e_{c xor 1}, since F(y, e_{c xor 1}) = ±y_c.  A
        # normalised point leads with a 1.
        unit = self.index_of[self.weights]
        vanish_at = [perp[unit[c ^ 1]] for c in range(self.dim)]
        vanish = [vanish_at[v.index(1)] for v in self.points]
        found: list[tuple[Matrix, int]] = []

        def grow(basis: list[int], allowed: int, common: int) -> None:
            # x outside the span S of basis is least in span(S, x) outside S
            # exactly when x is 0 at every leading coordinate of basis, that
            # is, in `allowed`.  With x after basis[-1], each generator is
            # reached once, by its greedy basis.
            if len(basis) == n:
                # A generator is its own perp, so `common` is its point set.
                # Its rref row at x's lead is its one point that is 0 at
                # every other lead; descending indices are ascending pivots.
                rows = []
                for x in basis:
                    row = common
                    for y in basis:
                        if y != x:
                            row &= vanish[y]
                    if row & (row - 1) or not row:
                        raise CatalogMismatch(f"no single rref row at point {x}")
                    rows.append(row.bit_length() - 1)
                rows.sort(reverse=True)
                found.append((tuple(self.points[r] for r in rows), common))
                return
            cand = common & allowed & -(2 << basis[-1])
            while cand:
                low = cand & -cand
                cand ^= low
                x = low.bit_length() - 1
                grow(basis + [x], allowed & vanish[x], common & perp[x])

        for p in range(self.num_points):
            grow([p], vanish[p], perp[p])
        # grow calls itself through its closure; break that cycle so that
        # `found` is freed on return, not at the next full collection.
        del grow
        if len(found) != expected:
            raise CatalogMismatch(
                f"W_{2*n-1}({d}) gave {len(found)} generators, expected {expected}"
            )
        found.sort()
        per_gen = (d**n - 1) // (d - 1)
        for basis, mask in found:
            if bin(mask).count("1") != per_gen:
                raise CatalogMismatch(f"generator {basis} has the wrong point count")
        return tuple(Generator(i, basis, mask) for i, (basis, mask) in enumerate(found))


# --------------------------------------------------------------------------
# Operations on a space.
# --------------------------------------------------------------------------


def common_transversals(gens: list[Generator], space: PolarSpace) -> list[Generator]:
    """All lines of W_3(d) meeting every member of a set of disjoint lines."""
    if space.n != 2:
        raise NotRankTwo("transversals are a rank-2 operation")
    masks = [g.point_mask for g in gens]
    for a, b in itertools.combinations(masks, 2):
        if a & b:
            raise NotDisjoint("input lines are not pairwise disjoint")
    member_ids = {g.gen_index for g in gens}
    out = [
        g
        for g in space.generators
        if g.gen_index not in member_ids
        and all(g.point_mask & m for m in masks)
    ]
    if len(gens) == 2 and len(out) != space.d + 1:
        raise CatalogMismatch(f"{len(out)} transversals of two lines, not d + 1")
    return out


def double_perp_size(V: Generator, W: Generator, space: PolarSpace) -> int:
    """|({V,W}^perp)^perp|: 3 in order 2, 2 in odd order (antiregularity).
    Kept for acceptance 9."""
    inner = common_transversals([V, W], space)
    return len(common_transversals(inner, space))


def transvections(space: PolarSpace) -> tuple[tuple[int, ...], ...]:
    """One permutation of generator indices per point v, in point order:
    entry i is the image of generator i under x ↦ x + F(x, v)·v.  That map's
    k-th power has scalar k, so for prime d these generate the action of
    Sp(2N, d) on generators (O'Meara, *Symplectic Groups*, 1978)."""
    d, P = space.d, space.coords
    PJ = P @ np.array(space.form, dtype=np.int64)
    # A generator's key is the bytes of its sorted point indices.
    gen_points = np.array([space.point_indices(g.point_mask) for g in space.generators])
    row = np.dtype((np.void, gen_points.itemsize * gen_points.shape[1]))
    keys = gen_points.view(row).ravel()
    order = np.argsort(keys)
    perms = []
    for v in P:
        image = space.index_of[(P + (PJ @ v % d)[:, None] * v) % d @ space.weights]
        rows = np.sort(image[gen_points], axis=1)
        # A row past every key wraps to index 0, and the check below refuses it.
        at = order[np.searchsorted(keys, rows.view(row).ravel(), sorter=order) % len(order)]
        if not np.array_equal(gen_points[at], rows):
            raise CatalogMismatch("a transvection moved a generator off the catalog")
        perms.append(tuple(at.tolist()))
    return tuple(perms)


def orbit(start, images) -> set:
    """Everything reachable from start, where images(x) yields x's neighbours."""
    seen = {start}
    frontier = {start}
    while frontier:
        frontier = {y for x in frontier for y in images(x)} - seen
        seen |= frontier
    return seen


def symplectic_generators(space: PolarSpace) -> list[tuple[int, ...]]:
    """The 4N − 1 transvections at e_c (c < 2N) and at e_c + e_{c+1}
    (c < 2N − 1), from `transvections`: `symplectic_group_order` certifies
    that they generate the whole group, PSp(2N, d)."""
    # A vector's code is its dot product with the weights, so e_c's is w[c].
    w = space.weights.tolist()
    codes = w + [w[c] + w[c + 1] for c in range(2 * space.n - 1)]
    perms = transvections(space)
    return [perms[space.index_of[code]] for code in codes]


def symplectic_group_order(space: PolarSpace) -> int:
    """The order of the action of Sp(2N, d) on generator indices, certified.

    The permutations from `symplectic_generators` go through a
    deterministic Schreier–Sims.  −I fixes every generator, so the action is
    PSp(2N, d), and the order must equal |Sp(2N, d)| / gcd(2, d − 1) =
    d^{N²} ∏(d^{2i} − 1) / gcd(2, d − 1); `CatalogMismatch` otherwise."""
    d, n = space.d, space.n
    order = _schreier_sims_order(symplectic_generators(space))
    expected = d ** (n * n) * math.prod(d ** (2 * i) - 1 for i in range(1, n + 1))
    expected //= math.gcd(2, d - 1)
    if order != expected:
        raise CatalogMismatch(
            f"transvections generate {order} elements, not |PSp({2*n}, {d})| = {expected}"
        )
    return order


def _schreier_sims_order(perms) -> int:
    """The order of the group that permutations of range(m) generate, as the
    product of the basic orbit lengths of a base and strong generating set:
    the deterministic Schreier–Sims algorithm (Seress, *Permutation Group
    Algorithms*, 2003).

    Level i holds the strong generators that fix the first i base points,
    and a transversal: for each point p of the orbit of base point i, a
    coset representative u with u[base[i]] = p, never replaced once set.
    A permutation p acts as x ↦ p[x], and p·q applies p first.  A
    permutation is sifted from a level down; a residue that is not the
    identity becomes a strong generator of the levels from there to where it
    failed, adding a base point if it fixes them all.  Each Schreier
    generator u_p·s·u_{s[p]}⁻¹ of a level is sifted from the level below,
    and the work resumes where a residue was added.  A tested (point,
    generator) pair stays tested, since sifting reads only representatives,
    which never change."""
    perms = [tuple(p) for p in perms]
    identity = tuple(range(len(perms[0]))) if perms else ()
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    # reps[i][p] = (u, u⁻¹); orbit[i] lists the points in the order found.
    reps: list[dict[int, tuple]] = []
    orbit: list[list[int]] = []
    tested: list[set[tuple[int, int]]] = []

    def compose(p, q):
        return itemgetter(*p)(q)

    def inverse(p):
        inv = [0] * len(p)
        for x, y in enumerate(p):
            inv[y] = x
        return tuple(inv)

    def add_strong(g, level):
        strong[level].append(g)
        # Every orbit point under every generator; old representatives stay.
        seen, pts = reps[level], orbit[level]
        k = 0
        while k < len(pts):
            u = seen[pts[k]][0]
            for s in strong[level]:
                q = s[pts[k]]
                if q not in seen:
                    v = compose(u, s)
                    seen[q] = (v, inverse(v))
                    pts.append(q)
            k += 1

    def extend(g, first):
        """Sift g from level `first`, add its residue if it is not the
        identity, and return the last level it went to, or None."""
        for stop in range(first, len(base)):
            rep = reps[stop].get(g[base[stop]])
            if rep is None:
                break
            g = compose(g, rep[1])
        else:
            if g == identity:
                return None
            stop = len(base)
            base.append(next(x for x, y in enumerate(g) if x != y))
            strong.append([])
            reps.append({base[-1]: (identity, identity)})
            orbit.append([base[-1]])
            tested.append(set())
        for level in range(first, stop + 1):
            add_strong(g, level)
        return stop

    def schreier_generators(level):
        for p in orbit[level]:
            u = reps[level][p][0]
            for j, s in enumerate(strong[level]):
                if (p, j) not in tested[level]:
                    tested[level].add((p, j))
                    us = compose(u, s)
                    v, v_inv = reps[level][s[p]]
                    if us != v:
                        yield compose(us, v_inv)

    for g in perms:
        extend(g, 0)
    level = len(base) - 1
    while level >= 0:
        for h in schreier_generators(level):
            stop = extend(h, level + 1)
            if stop is not None:
                level = stop
                break
        else:
            level -= 1
    return math.prod(len(pts) for pts in orbit)

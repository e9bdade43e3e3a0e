"""The symplectic polar space W_{2N-1}(d).

Points are the projective points of PG(2N-1, d), normalised so the first
nonzero coordinate is 1, indexed in lexicographic coordinate order.
Point sets are held as arbitrary-precision integer bitmasks over point
indices, so disjointness and coverage tests are single AND/OR operations.
Incidence comes from three tables.  The point-code table `index_of` maps
each nonzero vector's code to its point, and is built with the points.
`perp_masks`, each point's perp as a mask, is built on first read, by
whichever read comes first, in blocks of rows.  `generator_points`, each
generator's point indices as a row of one read-only int array, is built on
first read from the catalog's masks; the catalog never builds it.
Generators (maximal totally isotropic subspaces) are enumerated once each
by depth-first search over their greedy point bases, each point the least
of the generator outside the span S of those before it.  A point x outside
S is the least point of span(S, x) outside S exactly when x is 0 at the
leading coordinate of every point of the basis, and such an x is never in
S.  The points that are 0 at coordinate c are the perp of the unit point
e_{c xor 1}, so the search needs only AND-ed perp masks: the points that may
follow x are one mask succ[x], a node's candidates are the AND of succ over
its basis, and a node with none is never entered.  A point of succ[x] lies
after x and is 0 at x's lead, so leads fall strictly along a greedy basis;
points list later leads first, so those leading at c or later are an index
prefix, and each level stops where too few smaller leads are left for the
rows still to come.  The last point closes the generator as its own perp.
The greedy basis is the rref basis read backwards.  A later basis point is
0 at an earlier point's lead, since succ requires it.  An earlier point is
0 at a later point's lead, since that lead comes first in coordinate order
and a point is 0 everywhere before its own lead.  So each basis point is 1
at its own lead and 0 at the others' leads, and in descending index order,
ascending leads, the basis is the rref basis of its span; the point-count
check confirms that this span is the generator's point set.  Generators are
indexed in lexicographic order of their rref basis.  The symplectic group
acts on points: `symplectic_generators` gives 4N − 1 transvections as
permutations of point indices, and `symplectic_group_order` certifies the
order of the group they generate by a Schreier–Sims base and strong
generating set, checked against the closed form |PSp(2N, d)|, with no
generator catalog.  The group is never enumerated.  `transvection_lift`
lifts the same transvections once per space to permutations of generator
indices, by the rows of `generator_points`, and `disjoint_pair_orbit`
certifies on them, by a Schreier vector and `orbit`, that the group is
transitive on ordered pairs of disjoint generators.

The catalog is built once per space, by whichever read comes first, and
its one index, by point mask, is derived from it.  `generator_by_basis`
turns any rows that span a generator into it from the incidence layer
alone: a generator is its own perp, so its point mask is the AND of the
perp masks of the points on the rows, looked up in that index.  Every
module reads a caller's generator reference through `generator(ref)`: an
int or numpy integer index in range, or a `Generator` equal to this
catalog's entry at its index.  A bool or other non-integer raises
`TypeError`, an index outside the catalog `ValueError`, a `Generator` of
another catalog `DimensionMismatch`; `generator_by_basis` raises
`ValueError` for rows that span no generator and `DimensionMismatch` for
a row of the wrong length.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .algebra import FieldSpec, Matrix, Vector, _integer
from .errors import (
    CatalogMismatch,
    DimensionMismatch,
    NotDisjoint,
    NotRankTwo,
    ScaleExceeded,
)

POINT_LIMIT = 100_000
GENERATOR_LIMIT = 100_000
# Entries per array block of the incidence tables, so that their peak
# memory beside the tables themselves stays small up to `POINT_LIMIT`.  A
# block of int64 then takes 64 KB, below the 128 KB at which glibc's malloc
# maps fresh pages: at 2^14 the perp masks of the W_7(2), W_5(3) and W_3(7)
# catalogs raised peak RSS by 0.13 MB more.
_BLOCK_CELLS = 1 << 13


def point_count(d: int, n: int) -> int:
    """d^{2N-1} + d^{2N-2} + ... + 1"""
    return sum(d**i for i in range(2 * n))


def generator_count(d: int, n: int) -> int:
    """(d^N + 1)(d^{N-1} + 1) ... (d + 1)"""
    total = 1
    for i in range(1, n + 1):
        total *= d**i + 1
    return total


# Slots: a catalog holds up to `GENERATOR_LIMIT` of these at once.
@dataclass(frozen=True, slots=True)
class Generator:
    gen_index: int
    basis: Matrix
    point_mask: int


@dataclass(frozen=True)
class PairOrbit:
    """The certificate of `PolarSpace.disjoint_pair_orbit`: generator 0's
    orbit holds all `orbit` generators, and the orbit of `partner` under the
    stabilizer of generator 0 holds all `partners` generators disjoint from
    0, reached with `schreier` Schreier generators."""

    partner: int
    orbit: int
    partners: int
    schreier: int


class PolarSpace:
    """W_{2N-1}(d) with its canonical alternating form and catalogs.

    Immutable after construction; the generator catalog is built lazily on
    first use.  d is a supported prime and n at least 1, each an int or a
    numpy integer, held as an int; a bool or other type raises `TypeError`.
    """

    def __init__(self, d: int, n: int):
        d, n = _integer(d, "d"), _integer(n, "n")
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
        """The indices of the set bits of a point set mask, ascending;
        `ValueError` for a negative mask or one with a bit at or above
        `num_points`, which is no set of this space's points.  Kept for point
        sets other than a generator's, such as a partial spread's coverage;
        a generator's are the rows of `generator_points`."""
        if mask < 0 or mask >> self.num_points:
            raise ValueError(f"{mask} is not a point set of W_{self.dim - 1}({self.d})")
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    # -- incidence

    @functools.cached_property
    def perp_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set iff F(point i, point j) = 0.

        J·coordsᵀ is reduced mod d once, so every entry of a block's product
        coords[block] @ J·coordsᵀ is an integer from 0 to 2N(d − 1)², and
        `zero` reads F = 0 off it by index: an entry past the table would
        raise `IndexError`, never give a wrong bit.  Blocks of about
        `_BLOCK_CELLS` entries bound the memory beside the masks."""
        d, m = self.d, self.num_points
        JPt = np.array(self.form, dtype=np.int64) @ self.coords.T % d
        zero = np.arange(self.dim * (d - 1) ** 2 + 1) % d == 0
        width, rows = (m + 7) // 8, max(1, _BLOCK_CELLS // m)
        masks: list[int] = []
        for start in range(0, m, rows):
            product = self.coords[start : start + rows] @ JPt
            bits = np.packbits(zero[product], axis=1, bitorder="little").tobytes()
            masks += [int.from_bytes(bits[i : i + width], "little") for i in range(0, len(bits), width)]
        return tuple(masks)

    @functools.cached_property
    def disjoint_adjacency(self) -> list[int]:
        """Bit j of entry i is set iff generators i and j share no point."""
        # Rows are listed one at a time: a list of every row would be 23 MB
        # at W_9(2).
        table = self.generator_points
        # through[p] is the mask of the generators on point p, set bit by
        # bit in a bytearray and converted once.
        rows = [bytearray((len(table) + 7) // 8) for _ in range(self.num_points)]
        for i, pts in enumerate(table):
            for p in pts.tolist():
                rows[p][i >> 3] |= 1 << (i & 7)
        through = [int.from_bytes(row, "little") for row in rows]
        full = (1 << len(table)) - 1
        adj = []
        for pts in table:
            meets = 0
            for p in pts.tolist():
                meets |= through[p]
            adj.append(full & ~meets)
        return adj

    # -- generators

    @functools.cached_property
    def generators(self) -> tuple[Generator, ...]:
        return self._enumerate_generators()

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

    def generator_by_basis(self, vectors: Matrix) -> Generator:
        """The generator that the rows span, from any spanning rows, not only
        its rref basis; `ValueError` if they span none, and
        `DimensionMismatch` for a row whose length is not 2N.

        The AND of the perp masks of the points on the nonzero rows is the
        point set of span⊥.  A generator L is its own perp, so that set is
        L's exactly when span⊥ = L, that is span = L⊥ = L; the set of any
        other span is no generator's."""
        d, perp = self.d, self.perp_masks
        mask = (1 << self.num_points) - 1
        for row in vectors:
            if len(row) != self.dim:
                raise DimensionMismatch(f"rows must have length {self.dim}, got {row}")
            code = 0
            for x in row:
                code = code * d + x % d
            # item() gives an int: a numpy scalar here would bring numpy's
            # scalar arithmetic into every path, about 0.1 MB of peak RSS.
            point = self.index_of.item(code)
            if point >= 0:
                mask &= perp[point]
        index = self._gen_by_mask.get(mask)
        if index is None:
            raise ValueError(f"rows {vectors} do not span a generator of W_{self.dim - 1}({d})")
        return self.generators[index]

    @functools.cached_property
    def _gen_by_mask(self) -> dict[int, int]:
        return {g.point_mask: g.gen_index for g in self.generators}

    @functools.cached_property
    def generator_points(self) -> np.ndarray:
        """Row i holds the (d^N − 1)/(d − 1) point indices of generator i,
        ascending: one read-only int32 array (indices stay below
        `POINT_LIMIT`), built from the point masks on first read,
        `_BLOCK_CELLS` mask bytes at a time.  Only a mask's nonzero bytes are
        unpacked to bits."""
        masks = [g.point_mask for g in self.generators]
        width = (self.num_points + 7) // 8
        rows = max(1, _BLOCK_CELLS // width)
        table = np.empty((len(masks), (self.d**self.n - 1) // (self.d - 1)), dtype=np.int32)
        for start in range(0, len(masks), rows):
            raw = _mask_bytes(masks[start : start + rows], width)
            at = np.flatnonzero(raw)
            byte, bit = np.nonzero(np.unpackbits(raw.ravel()[at, None], axis=1, bitorder="little"))
            table[start : start + len(raw)] = (at[byte] % width * 8 + bit).reshape(len(raw), -1)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def transvection_lift(self) -> tuple[tuple[int, ...], ...]:
        """The 4N − 1 transvections of `symplectic_generators` as
        permutations of generator indices, lifted once per space: each
        generator goes to the one whose point set is its image, and
        `CatalogMismatch` if that is no generator.

        A point set's key is the sum, wrapping mod 2⁶⁴, of fixed
        pseudo-random weights of its points; two generators with one key
        are refused.  Each image row's key names a generator, which must
        then hold every point of the row, read off the bytes of its point
        mask.  A one-to-one point map sends a row to as many distinct points
        as the generator has, so the two point sets are equal: a key that
        names the wrong generator, or none, refuses the lift and never gives
        a wrong one.  Rows go in blocks of about `_BLOCK_CELLS` points.  No
        numpy sort runs, and the bit test unpacks bytes: a sort, or shifts
        of a byte array, would load numpy kernels that no other step of a
        small CLI run loads, 0.06–0.3 MB more peak RSS there."""
        table, m = self.generator_points, self.num_points
        perms = np.array(symplectic_generators(self))
        if np.bincount((perms + m * np.arange(len(perms))[:, None]).ravel()).max() > 1:
            raise CatalogMismatch("a transvection is not one to one on points")
        weight = np.frombuffer(random.Random(0).randbytes(8 * m), dtype=np.int64)
        index: dict[int, int] = {}
        for g, key in enumerate(weight[table].sum(axis=1).tolist()):
            if index.setdefault(key, g) != g:
                raise CatalogMismatch(f"generators {index[key]} and {g} have one point key")
        width = (m + 7) // 8
        incident = _mask_bytes([g.point_mask for g in self.generators], width).ravel()
        # found[k] holds the dict's own ints, shared by every tuple.
        found: list[list[int]] = [[] for _ in perms]
        rows = max(1, _BLOCK_CELLS // perms.shape[0] // table.shape[1])
        for start in range(0, len(table), rows):
            image = perms[:, table[start : start + rows]]
            block = [[index.get(key, 0) for key in keys] for keys in weight[image].sum(axis=2).tolist()]
            bit = np.array(block)[..., None] * (8 * width) + image
            byte = bit >> 3
            # Entry k's byte unpacks to bits 8k .. 8k + 7 of `on`.
            on = np.unpackbits(incident[byte], bitorder="little")
            if np.count_nonzero(on[8 * np.arange(bit.size) + (bit - 8 * byte).ravel()]) != bit.size:
                raise CatalogMismatch("a permutation moved a generator off the catalog")
            for part, ids in zip(found, block):
                part += ids
        lift = []
        for part in found:
            lift.append(tuple(part))
            part.clear()  # else lists and tuples coexist: 11 MB more at W_9(2)
        return tuple(lift)

    @functools.cached_property
    def disjoint_pair_orbit(self) -> PairOrbit:
        """The certificate that every ordered pair of disjoint generators is
        an image of (0, j*), j* the lowest generator disjoint from generator
        0, under the lifted transvections s_k; computed once per space.

        Witt's theorem promises it, since two complementary Lagrangians
        extend to a symplectic basis; two orbit walks check it.  First, a
        Schreier vector for generator 0: a breadth-first word per orbit
        point x, whose product u_x sends 0 to x.  The orbit must be every
        generator.  Second, the orbit of j* under the Schreier generators
        u_x·s_k·u_y⁻¹, y = s_k(x), of the stabilizer of 0, each composed
        once into a permutation.  Drawn x in orbit order and k in order,
        skipping the tree edges (word[y] is word[x] then k), they are added
        until the orbit of j* holds every generator disjoint from 0.  Then a
        disjoint pair (a, b) is the image of (0, j*) under h·g (h first),
        for g sending 0 to a and h in the stabilizer sending j* to g⁻¹(b).
        The stabilizer keeps disjointness from 0, so an image that meets 0,
        or Schreier generators that run out first, mean that the
        transvections do not generate the group: `CatalogMismatch`."""
        perms = self.transvection_lift
        word: dict[int, tuple[int, ...]] = {0: ()}
        queue = [0]
        for x in queue:  # the queue grows during the walk
            for k, p in enumerate(perms):
                if p[x] not in word:
                    word[p[x]] = word[x] + (k,)
                    queue.append(p[x])
        if len(queue) != self.num_generators:
            raise CatalogMismatch(
                f"generator 0 has {len(queue)} images, not all {self.num_generators} generators"
            )
        # A permutation p acts as x ↦ p[x]; an inverse is its argsort.
        forward = np.array(perms)
        backward = np.argsort(forward, axis=1)
        partners = self.disjoint_adjacency[0]
        target = partners.bit_count()
        j = (partners & -partners).bit_length() - 1
        reached, drawn = {j}, []
        for x in queue:
            for k, p in enumerate(perms):
                y = p[x]
                if word[y] == word[x] + (k,):
                    continue
                h = np.arange(len(queue))
                for t in word[x] + (k,):  # u_x, then s_k
                    h = forward[t][h]
                for t in word[y][::-1]:  # then u_y⁻¹
                    h = backward[t][h]
                drawn.append(h.tolist())
                reached = orbit(j, lambda z: {g[z] for g in drawn})
                off = [z for z in reached if not partners >> z & 1]
                if off:
                    raise CatalogMismatch(f"the stabilizer of generator 0 moved {j} onto {min(off)}")
                if len(reached) == target:
                    return PairOrbit(j, len(queue), target, len(drawn))
        raise CatalogMismatch(
            f"the stabilizer of generator 0 moves {j} onto {len(reached)} of its {target} partners"
        )

    def _enumerate_generators(self) -> tuple[Generator, ...]:
        d, n = self.d, self.n
        expected = generator_count(d, n)
        if expected > GENERATOR_LIMIT:
            raise ScaleExceeded(
                f"W_{2*n-1}({d}) has {expected} generators; enumeration refused"
            )
        perp = self.perp_masks
        # The points that are 0 at coordinate c are the perp of e_{c xor 1},
        # since F(y, e_{c xor 1}) = ±y_c.  A normalised point leads with a 1.
        unit = self.index_of[self.weights]
        vanish_at = [perp[unit[c ^ 1]] for c in range(self.dim)]
        # succ[x] holds the points that may follow x in a greedy basis: after
        # x, in its perp, and 0 at its lead.  A node's candidates `cand` are
        # the AND of succ over its basis, so a child's are cand & succ[x], and
        # a child below depth n is entered only when that mask is nonzero.
        succ = [
            perp[x] & vanish_at[v.index(1)] & -(2 << x) for x, v in enumerate(self.points)
        ]
        # Leads fall strictly along a greedy basis, and the points leading at
        # c or later are the first (d^{2N-c} - 1)/(d - 1), so basis point k,
        # with n - 1 - k smaller leads after it, lies below room[k].
        room = [(d ** (n + 1 + k) - 1) // (d - 1) for k in range(n)]
        # Leaves read their row indices from one table: an index above 256
        # is otherwise a new int object in every row that holds it, 3 MB of
        # peak memory at W_7(3).
        index = list(range(len(perp)))
        found: list = []

        def grow(basis: list[int], cand: int, common: int) -> None:
            # x outside the span S of basis is least in span(S, x) outside S
            # exactly when x is 0 at every leading coordinate of basis, so
            # each generator is reached once, by its greedy basis.
            if len(basis) + 1 == n:
                # Each candidate x closes a generator.  A generator is its
                # own perp, so `common & perp[x]` is its point set, and its
                # greedy basis in descending index order is its rref basis.
                rows = [index[b] for b in reversed(basis)]
                while cand:
                    low = cand & -cand
                    cand ^= low
                    x = low.bit_length() - 1
                    found.append((tuple([index[x], *rows]), common & perp[x]))
                return
            stop = room[len(basis)]
            while cand:
                low = cand & -cand
                cand ^= low
                x = low.bit_length() - 1
                if x >= stop:
                    break
                below = cand & succ[x]  # from all of cand: rows past the cut
                if below:
                    grow(basis + [x], below, common & perp[x])

        for p, cand in enumerate(succ[: room[0]]):
            if n == 1:
                # Every point of W_1(d) is a generator, its own perp.
                found.append(((index[p],), perp[p]))
            elif cand:
                grow([p], cand, perp[p])
        # grow calls itself through its closure; break that cycle so that
        # `found` is freed on return, not at the next full collection.
        del grow
        if len(found) != expected:
            raise CatalogMismatch(
                f"W_{2*n-1}({d}) gave {len(found)} generators, expected {expected}"
            )
        # Point index order is lexicographic vector order, so the row indices
        # sort as the rref bases do.  Each entry becomes its Generator in place.
        found.sort()
        per_gen = (d**n - 1) // (d - 1)
        points = self.points
        for i, (rows, mask) in enumerate(found):
            # itemgetter builds the basis tuple in one call: at W_7(3) the
            # catalog takes 0.69 s against 0.72 s for a tuple built from a
            # list or a generator, at the same 89 MB peak.  A one-key
            # itemgetter returns the point itself, not a 1-tuple.
            basis = itemgetter(*rows)(points) if n > 1 else (points[rows[0]],)
            if mask.bit_count() != per_gen:
                raise CatalogMismatch(f"generator {basis} has the wrong point count")
            found[i] = Generator(i, basis, mask)
        return tuple(found)


# --------------------------------------------------------------------------
# Operations on a space.
# --------------------------------------------------------------------------


def common_transversals(gens: list[Generator], space: PolarSpace) -> list[Generator]:
    """All lines of W_3(d) meeting every member of a set of disjoint lines,
    each read through `PolarSpace.generator`, so another space's line is
    refused."""
    if space.n != 2:
        raise NotRankTwo("transversals are a rank-2 operation")
    gens = [space.generator(g) for g in gens]
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


def orbit(start, images) -> set:
    """Everything reachable from start, where images(x) yields x's neighbours."""
    seen = {start}
    frontier = {start}
    while frontier:
        frontier = {y for x in frontier for y in images(x)} - seen
        seen |= frontier
    return seen


def symplectic_generators(space: PolarSpace) -> list[tuple[int, ...]]:
    """The 4N − 1 transvections x ↦ x + F(x, v)·v at v = e_c (c < 2N) and
    at v = e_c + e_{c+1} (c < 2N − 1) as permutations of point indices:
    entry i is the image of point i.  `symplectic_group_order` certifies
    that they generate the whole group, PSp(2N, d)."""
    d, P = space.d, space.coords
    PJ = P @ np.array(space.form, dtype=np.int64)
    unit = np.eye(space.dim, dtype=np.int64)
    images = ((P + (PJ @ v % d)[:, None] * v) % d for v in [*unit, *(unit[:-1] + unit[1:])])
    return [tuple(space.index_of[x @ space.weights].tolist()) for x in images]


def _mask_bytes(masks: list[int], width: int) -> np.ndarray:
    """Row i holds the `width` little-endian bytes of masks[i]."""
    raw = b"".join([mask.to_bytes(width, "little") for mask in masks])
    return np.frombuffer(raw, np.uint8).reshape(len(masks), width)


def symplectic_group_order(space: PolarSpace) -> int:
    """The order of the action of Sp(2N, d) on points, certified.

    The permutations from `symplectic_generators` go through a
    deterministic Schreier–Sims, with no generator catalog.  −I is the only
    nontrivial element of Sp(2N, d) that fixes every point, so the action is
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

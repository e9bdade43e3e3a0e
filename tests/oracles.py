"""Plain-Python and per-factor oracles shared by the tests.

`line_mask` normalises each point of a projective line by hand and looks it
up by its coordinates; `regulus_closure` is the triple-by-triple regularity
loop built on it.  Both are slow and independent of the array layer in
`polarmub.polar`, which is what makes them oracles for it.

`kron_pauli_matrix` builds a Pauli matrix as a Kronecker product of its
single-system factors, and `joint_projectors` / `eigenbasis` multiply out
the joint eigenprojectors one character at a time: the per-factor and
per-character forms that the dense layer of `polarmub.pauli` and
`polarmub.mub` replaces with index arithmetic and batched products.

`class_from_generator` builds a class as the span enumeration first did:
every nonzero multiple of every point of the generator, sorted, each turned
into a fresh operator by `op_from_image`.  It is the reference for the
shared per-point operators of `polarmub.pauli.class_from_generator`.
`unbiasedness` reduces the squared overlaps |U^H V|^2 minus 1/dim by
absolute value, entry by entry: the reference for the max/min reduction of
`polarmub.mub.unbiasedness`.  `member_positions` fills a spread's
point-to-member table from the rows of the catalog's `generator_points`:
the reference for `polarmub.spread.PartialSpread.member_positions`, which
reads the members' own point masks.

`perp_masks` builds the perp masks one point at a time, one product, `%`
and `packbits` per row: the reference for the row blocks and lookup table
of `polarmub.polar.PolarSpace.perp_masks`.  `transvection_lift` lifts the
4N − 1 point transvections of `polarmub.polar.symplectic_generators` to
generator indices by building each image mask bit by bit and looking it up
among the catalog's masks: the reference for the array lift of
`polarmub.polar.PolarSpace.transvection_lift`.

`symplectic_coordinates` is the hyperbolic basis change of the field
reduction as a function of one row, each form a full width² sum, and
`field_modulus` decides irreducibility by the rank of multiplication
matrices: the references for the coordinate matrix and the trial division
of `polarmub.spread`.

`transvections` gives one permutation of generator indices per point, the
action of every transvection on the catalog, found by matching sorted image
rows against void-dtype keys of the generators' point indices.  It is the
reference for the 4N − 1 point permutations of
`polarmub.polar.symplectic_generators` once
`polarmub.polar.PolarSpace.transvection_lift` lifts them to generators, and
its output is pinned by digest.  `symplectic_group`
enumerates the group that these permutations generate, by closing the
identity under them: the count that `polarmub.polar.symplectic_group_order`
certifies by Schreier–Sims on points instead.  The tests enumerate it at
W_3(2) (720 elements).  `disjoint_pair_orbit` walks the orbit of an
ordered pair of disjoint generators under the same permutations, pair by
pair as a set: what `polarmub.polar.PolarSpace.disjoint_pair_orbit`
certifies by two orbit walks on single generators.

`brute_force_conjecture` is the subset sweep: it builds every
(d^{N-1} + 1)-subset of a spread and scans the whole catalog for the
generators it covers (`covered_generators`).  It is exponential in the
spread size, and independent of the meet-set count in `polarmub.counting`.
`exactly_one_trades` lists the subsets that cover exactly one generator,
with that generator and its meet set, from point-mask ANDs alone: the
trades whose completeness `counting` reads from meet sets, for the tests
to certify with `spread.is_complete` one by one.
"""

import functools
import itertools
import weakref

import numpy as np

from polarmub import algebra, counting, pauli, polar, spread
from polarmub.errors import CatalogMismatch, NotSymplecticBasis

# Each space's points keyed by coordinates, dropped with the space.
_point_index = weakref.WeakKeyDictionary()


def line_mask(space, i, j):
    """The d + 1 points of the projective line through points i != j."""
    d = space.d
    x, y = space.points[i], space.points[j]
    if space not in _point_index:
        _point_index[space] = {v: p for p, v in enumerate(space.points)}
    index = _point_index[space]
    mask = 1 << i | 1 << j
    for c in range(1, d):
        v = [(a + c * b) % d for a, b in zip(x, y)]
        lead = next(t for t in v if t)
        if lead != 1:
            inv = pow(lead, -1, d)
            v = [t * inv % d for t in v]
        mask |= 1 << index[tuple(v)]
    return mask


def regulus_closure(s):
    """{(a, b, c): closed} over the member positions a < b < c of a partial
    spread.  A line meeting two disjoint members meets each in one point, so
    the ambient transversals of a, b and c join a point of a to one of b;
    the triple is closed when exactly d + 1 members meet all of them."""
    space = s.space
    masks = [space.generator(m).point_mask for m in s.members]
    closed = {}
    for ia, ib in itertools.combinations(range(len(masks)), 2):
        pair_lines = [
            line_mask(space, x, y)
            for x in space.point_indices(masks[ia])
            for y in space.point_indices(masks[ib])
        ]
        for ic in range(ib + 1, len(masks)):
            lines = [line for line in pair_lines if line & masks[ic]]
            meeting_all = sum(all(m & line for line in lines) for m in masks)
            closed[ia, ib, ic] = meeting_all == space.d + 1
    return closed


def perp_masks(space):
    """Bit j of entry i is set iff F(point i, point j) = 0, one point i at a
    time."""
    JPt = np.array(space.form, dtype=np.int64) @ space.coords.T
    bits = (np.packbits(p @ JPt % space.d == 0, bitorder="little") for p in space.coords)
    return tuple(int.from_bytes(b, "little") for b in bits)


def transvection_lift(space):
    """The permutations of `polar.symplectic_generators` on generator
    indices: each generator goes to the one whose point mask is its image,
    `CatalogMismatch` if none is."""
    by_mask = {g.point_mask: g.gen_index for g in space.generators}
    gen_points = [space.point_indices(g.point_mask) for g in space.generators]
    try:
        return tuple(
            tuple(by_mask[sum(1 << perm[p] for p in pts)] for pts in gen_points)
            for perm in polar.symplectic_generators(space)
        )
    except KeyError:
        raise CatalogMismatch("a permutation moved a generator off the catalog") from None


def symplectic_coordinates(gram, target, spec):
    """a ↦ a·P⁻¹ as a function of one row, for P the rows e1, f1, e2, f2,
    ... hyperbolic for the form of the given Gram matrix, each form a full
    width² sum, `NotSymplecticBasis` unless P·gram·Pᵀ = target."""
    d = spec.d
    width = len(gram)

    def form(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(width) for j in range(width)) % d

    rem = [tuple(1 if j == i else 0 for j in range(width)) for i in range(width)]
    out = []
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
            projected.append(tuple((u[t] - cv * v[t] + cw * w[t]) % d for t in range(width)))
        rem = list(algebra.rref(tuple(projected), spec))
    if tuple(tuple(form(u, v) for v in out) for u in out) != target:
        raise NotSymplecticBasis("hyperbolic basis change failed")
    columns = [
        tuple(sign * sum(g * x for g, x in zip(row, v)) % d for row in gram)
        for e, f in zip(out[::2], out[1::2])
        for v, sign in ((f, 1), (e, -1))
    ]
    return lambda a: tuple(sum(x * c for x, c in zip(a, col)) % d for col in columns)


def times_t(v, count, f, d):
    """v, v·t, ..., v·t^(count-1) in F_d[t]/(f), for f monic of degree N."""
    rows = [tuple(v)]
    while len(rows) < count:
        *head, c = rows[-1]
        rows.append(tuple((a - c * b) % d for a, b in zip((0, *head), f)))
    return rows


def field_modulus(d, n):
    """The least monic irreducible of degree N over F_d, little-endian, by
    rank: f is irreducible iff the multiplication matrix of every monic y
    of degree 1..⌊N/2⌋ in F_d[t]/(f) has full rank N."""
    spec = algebra.FieldSpec(d)
    monic = [
        tail + (1,) + (0,) * (n - k - 1)
        for k in range(1, n // 2 + 1)
        for tail in itertools.product(range(d), repeat=k)
    ]
    for value in range(d**n):
        f = tuple(value // d**i % d for i in range(n)) + (1,)
        if all(len(algebra.rref(times_t(y, n, f, d), spec)) == n for y in monic):
            return f
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{d}")


def kron_pauli_matrix(op, spec):
    """X^a Z^b with its phase, as the Kronecker product over systems of
    |s> -> omega^{b_j s} |s + a_j>, system 0 leftmost."""
    d = spec.d
    w = np.exp(2j * np.pi / d)
    out = np.eye(1, dtype=complex)
    for aj, bj in zip(op.a, op.b):
        factor = np.zeros((d, d), dtype=complex)
        for s in range(d):
            factor[(s + aj) % d, s] = w ** (bj * s)
        out = np.kron(out, factor)
    return (1j**op.phase_exp if d == 2 else w**op.phase_exp) * out


def joint_projectors(c, spec):
    """The d^N joint eigenprojectors, chi in (Z_d)^N in lexicographic
    order: the product over j of the spectral projectors
    (1/d) sum_k omega^{-k chi_j} G_j^k of the N class members G_j whose
    images are the rref basis rows of the generator."""
    d = c.d
    by_image = {op.symplectic_image(): op for op in c.ops}
    rows = algebra.rref(tuple(by_image), spec)
    mats = [kron_pauli_matrix(by_image[row], spec) for row in rows]
    w = np.exp(2j * np.pi / d)
    spectral = []
    for m in mats:
        powers = [np.linalg.matrix_power(m, k) for k in range(d)]
        spectral.append(
            [sum(w ** (-k * x) * powers[k] for k in range(d)) / d for x in range(d)]
        )
    return np.array(
        [
            functools.reduce(np.matmul, [s[x] for s, x in zip(spectral, chi)])
            for chi in itertools.product(range(d), repeat=len(mats))
        ]
    )


def eigenbasis(c, spec):
    """The unitary whose column chi is column j of the chi-th joint
    projector P, divided by sqrt(P_jj), j the first index whose diagonal
    weight is at least half the largest."""
    columns = []
    for p in joint_projectors(c, spec):
        weight = p.diagonal().real.tolist()
        j = next(i for i, w in enumerate(weight) if w >= max(weight) / 2)
        columns.append(p[:, j] / weight[j] ** 0.5)
    return np.array(columns).T


def class_from_generator(g, space):
    """The class over generator g, one freshly built operator per nonzero
    vector of g's span, in lexicographic vector order."""
    g = space.generator(g)
    d = space.d
    points = (space.points[p] for p in space.point_indices(g.point_mask))
    vecs = sorted([tuple([c * x % d for x in v]) for v in points for c in range(1, d)])
    return pauli.CommutingClass(d, tuple(pauli.op_from_image(v, d) for v in vecs), g.gen_index)


def member_positions(s):
    """Entry p is the position of the member on point p, or `size` on a
    point that no member covers, read off the catalog's point table."""
    table = np.full(s.space.num_points, s.size)
    table[s.space.generator_points[list(s.members)]] = np.arange(s.size)[:, None]
    return table


def unbiasedness(p, q):
    """max over cross pairs of | |<u_i|v_j>|^2 - 1/dim |, entry by entry."""
    overlaps = np.abs(p.unitary.conj().T @ q.unitary) ** 2
    return float(np.abs(overlaps - 1.0 / p.dim).max())


def transvections(space):
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


def symplectic_group(space):
    """Every permutation of generator indices in the group that
    `transvections(space)` generates, sorted: the closure of the identity
    under composition with each transvection."""
    gens = transvections(space)
    start = tuple(range(space.num_generators))
    seen = {start}
    frontier = [start]
    while frontier:
        step = []
        for p in frontier:
            for t in gens:
                q = tuple(t[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    step.append(q)
        frontier = step
    return tuple(sorted(seen))


def disjoint_pair_orbit(space):
    """(j*, orbit): j* the lowest generator disjoint from generator 0, and
    the set of ordered pairs of generators that `transvections(space)` carry
    (0, j*) to, closed one pair at a time."""
    masks = [g.point_mask for g in space.generators]
    start = (0, next(j for j, m in enumerate(masks) if not m & masks[0]))
    perms = transvections(space)
    seen = {start}
    frontier = [start]
    while frontier:
        step = []
        for a, b in frontier:
            for t in perms:
                pair = (t[a], t[b])
                if pair not in seen:
                    seen.add(pair)
                    step.append(pair)
        frontier = step
    return start[1], seen


def covered_generators(ps):
    """Generators outside ps whose point set lies inside the coverage."""
    members = set(ps.members)
    return [
        g
        for g in ps.space.generators
        if g.gen_index not in members
        and g.point_mask & ps.coverage == g.point_mask
    ]


def brute_force_conjecture(space, s):
    """Sweep every subset of the spread of size d^{N-1} + 1.

    Tallies how many subsets cover exactly one further generator versus at
    least one, whether distinct subsets give distinct covered generators,
    and whether trading the subset for its covered generator leaves a
    complete partial spread of size d^N - d^{N-1} + 1."""
    if not s.is_spread:
        raise ValueError("brute force needs a full spread")
    subset_size = space.d ** (space.n - 1) + 1
    expected = space.d**space.n - space.d ** (space.n - 1) + 1
    exactly_one = 0
    at_least_one = 0
    first_failure = None
    covered_seen = {}
    distinct = True
    completions_ok = True
    completion_size = None
    total = 0
    for subset in itertools.combinations(s.members, subset_size):
        total += 1
        covered = covered_generators(spread.partial_spread(space, subset))
        if len(covered) >= 1:
            at_least_one += 1
        if len(covered) == 1:
            exactly_one += 1
            g = covered[0]
            if g.gen_index in covered_seen and covered_seen[g.gen_index] != subset:
                distinct = False
            covered_seen[g.gen_index] = subset
            traded = spread.partial_spread(
                space,
                [m for m in s.members if m not in subset] + [g.gen_index],
            )
            if traded.size != expected or not spread.is_complete(traded).complete:
                completions_ok = False
            completion_size = traded.size
        elif first_failure is None:
            first_failure = subset
    return counting.BruteForceSummary(
        subsets_total=total,
        exactly_one=exactly_one,
        at_least_one=at_least_one,
        first_failure=first_failure,
        distinct_covered=distinct,
        completions_complete=completions_ok,
        completion_size=completion_size,
        expected_completion_size=expected,
    )


def exactly_one_trades(space, s):
    """(T, g, M) for each (d^{N-1} + 1)-subset T of the spread s that covers
    exactly one generator g outside s, in lexicographic order of T: M is the
    set of members g meets, found by ANDing point masks, and T covers g
    when M lies inside T.  T and M are sorted tuples of member indices."""
    k = space.d ** (space.n - 1) + 1
    masks = {m: space.generator(m).point_mask for m in s.members}
    covers = {}
    for g in space.generators:
        if g.gen_index in masks:
            continue
        meets = tuple(m for m, mask in masks.items() if mask & g.point_mask)
        if len(meets) > k:
            continue
        rest = [m for m in s.members if m not in meets]
        for extra in itertools.combinations(rest, k - len(meets)):
            t = tuple(sorted(meets + extra))
            covers.setdefault(t, []).append((g.gen_index, meets))
    return [(t, *found[0]) for t, found in sorted(covers.items()) if len(found) == 1]

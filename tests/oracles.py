"""Plain-Python incidence oracles shared by the tests.

`line_mask` normalises each point of a projective line by hand and looks it
up by its coordinates; `regulus_closure` is the triple-by-triple regularity
loop built on it.  Both are slow and independent of the array layer in
`polarmub.polar`, which is what makes them oracles for it.
"""

import itertools
import weakref

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

"""Bruhat order on the affine Weyl group of type A2~, via convex hulls.

For every w the lower interval {x : x <= w} is the set of alcove centers in
a convex polygon: a hexagon with vertices given by three reflections of w
when w lies in a chamber, and a degenerate quadrilateral (or a two-element
chain) when w is spiral.  The hull is the meet of three slabs, one pair
of half-plane inequalities in the scaled integer coordinates per positive
root direction.

Membership reads the element, not its center.  The center of
x = t(l0, l1) * f has slab values fixed offsets of f plus 9 * l1, 9 * l0
and 9 * (l0 - l1), so for each of the six finite parts the slabs are a
lattice box: integer ranges on l1, l0 and l0 - l1.  A hull carries its
slab bounds and those six boxes, and Hull.contains(x), the one
membership test, compares x's coordinates with the box of its finite part;
leq(x, w) is hull_of(w).contains(x).

Hull is the one hull type and hull_of the one builder and memo: off the
strips the hull is the Bruhat hexagon and also carries its three
hyperplanes and chamber parity, on them it is the spiral quadrilateral
or chain with neither.  shell_of reads a center's shell off the slab
bounds.  Lines are (direction, trans value) pairs; line_meet intersects
two of them exactly, and triangle_test decides membership in the closed
triangle that three of them cut out.

Along a root string in direction d the centers are p + t * unit(d) for
integers t outside one residue class mod 3, and a step in t moves the other
two trans values by 3 each.  So a hull meets the string in an integer
t-interval, and chords reads all three of a point's t-intervals off the
slab bounds at once; reflection partners, Psi sets and diagonals are
counted or listed from them without stepping.  interval reads the same
slabs row by row: each row of centers is one arithmetic progression.

An independent subexpression oracle (forward dynamic program over a reduced
word) is provided for cross-checking.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .alcove import (
    _FIN_SLABS,
    E,
    POSITIVE_ROOTS,
    Reflection,
    SIMPLES,
    SpiralInputError,
    chamber_of,
    chamber_parity,
    chamber_walls,
    display_word,
    element_from_center,
    element_to_word,
    format_word,
    half_strip_pattern,
    is_spiral,
    length,
    pairing,
)

# Transverse coordinates: trans(p, d) = a*p[0] + b*p[1] with (a, b) = _TRANS[d]
# is constant exactly on root strings in direction d, and consecutive
# parallel strings of centers differ by 3.
_TRANS = {(1, 0): (1, 2), (0, 1): (2, 1), (1, 1): (1, -1)}


def trans(point, direction):
    a, b = _TRANS[direction]
    return a * point[0] + b * point[1]


def line_meet(d1, t1, d2, t2):
    """Tripled coordinates of the point with trans(d1) = t1, trans(d2) = t2.

    The determinant is 3 or -3 for every pair of distinct directions, so
    the tripled point is an exact integer pair.
    """
    (a, b), (c, d) = _TRANS[d1], _TRANS[d2]
    det = a * d - b * c
    return (3 * (d * t1 - b * t2) // det, 3 * (a * t2 - c * t1) // det)


def triangle_test(lines):
    """Membership test for the closed triangle cut out by three lines.

    Each line is a (direction, trans value) pair.  A point is inside when
    it lies on each line or on the same side of it as the centroid; when
    the three lines meet in one point the triangle is that point.
    """
    corners = [line_meet(*lines[(a + 1) % 3], *lines[(a + 2) % 3]) for a in range(3)]
    ref9 = (sum(c[0] for c in corners), sum(c[1] for c in corners))  # 9 * centroid
    sides = [(d, t, trans(ref9, d) - 9 * t) for d, t in lines]

    def inside(point):
        for d, t, sref in sides:
            sx = trans(point, d) - t
            if sx and (sref == 0 or (sx > 0) != (sref > 0)):
                return False
        return True

    return inside


# unit(d): a third of the root d in scaled coordinates.  It adds 2 to the
# d-pairing, 0 to trans(., d) and +-3 to the other two trans values.
_UNIT = {(1, 0): (2, -1), (0, 1): (-1, 2), (1, 1): (1, 1)}


def chords(h, point):
    """The integer intervals (lo, hi) of the t with point + t * unit(d) in
    hull h, one per d in POSITIVE_ROOTS order; (0, -1) where the d-string
    through point misses h.

    The point's three trans values are read once.  Along a d-string
    trans(., d) is constant and the other two move by 3t, except that
    trans(., (1, 1)) moves by -3t along (0, 1).  Each of the two slabs
    crossed, lo <= s +- 3t <= hi, cuts out a t-interval, and the chord is
    their meet.
    """
    x, y = point
    s1, s2, st = x + 2 * y, 2 * x + y, x - y
    (lo1, hi1), (lo2, hi2), (lot, hit) = h.bounds
    # the t-interval of each slab for a +3 step: s + 3t in [lo, hi]
    a1, b1 = -((s1 - lo1) // 3), (hi1 - s1) // 3
    a2, b2 = -((s2 - lo2) // 3), (hi2 - s2) // 3
    at, bt = -((st - lot) // 3), (hit - st) // 3
    return (
        (max(a2, at), min(b2, bt)) if lo1 <= s1 <= hi1 else (0, -1),
        (max(a1, -bt), min(b1, -at)) if lo2 <= s2 <= hi2 else (0, -1),
        (max(a1, a2), min(b1, b2)) if lot <= st <= hit else (0, -1),
    )


def string_centers(point, d, ts):
    """The centers point + t * unit(d) for t in ts, in the order of ts.

    For a center point these are the t not congruent to pairing(point, d)
    mod 3; the other t give points on the alcove walls.
    """
    (dx, dy), skip = _UNIT[d], pairing(point, d) % 3
    x, y = point
    return [(x + t * dx, y + t * dy) for t in ts if t % 3 != skip]


def string_direction(p, q):
    """The root direction of the string through two distinct centers, or None."""
    for d in POSITIVE_ROOTS:
        if trans(p, d) == trans(q, d):
            return d
    return None


def centers_between(p, q):
    """All centers on the segment [p, q] of a common root string, inclusive."""
    if p == q:
        return [p]
    d = string_direction(p, q)
    if d is None:
        raise ValueError("centers %r, %r are not on a common string" % (p, q))
    t = (pairing(q, d) - pairing(p, d)) // 2
    step = 1 if t > 0 else -1
    return string_centers(p, d, range(0, t + step, step))


class Hull(NamedTuple):
    """Convex hull of a Bruhat interval: vertex elements round the ring
    from the owner, slab bounds, and the same slabs as lattice boxes.

    Off the strips the hull is the Bruhat hexagon: its vertices run
    counterclockwise, hyperplanes holds the two chamber walls
    (counterclockwise one first) and the third hyperplane closest to the
    owner, each as a Reflection, and parity is the owner's chamber parity.
    A spiral hull has () and "" there.
    """

    owner: object
    vertices: tuple
    bounds: tuple  # ((lo, hi) per direction, in POSITIVE_ROOTS order)
    boxes: tuple  # per finite part f, (lo, hi) of l1, then l0, then l0 - l1
    hyperplanes: tuple = ()
    parity: str = ""

    def contains(self, x):
        """Whether the element x = t(l0, l1) * f lies in the hull: three
        integer ranges on its coordinates, with no center built."""
        (l0, l1), f = x
        a1, b1, a0, b0, ad, bd = self.boxes[f]
        return a1 <= l1 <= b1 and a0 <= l0 <= b0 and ad <= l0 - l1 <= bd

    def edge(self, i):
        """Centers from vertex i to the next one round the ring, inclusive."""
        a = self.vertices[i].center()
        b = self.vertices[(i + 1) % len(self.vertices)].center()
        return centers_between(a, b)


def _bounds(vertices):
    """(bounds, boxes) of the hull of the vertices: the (lo, hi) slab
    bounds of their centers per direction, and per finite part f the
    ranges of l1, l0 and l0 - l1 that keep _FIN_SLABS[f] plus 9 * l1,
    9 * l0 and 9 * (l0 - l1) inside them."""
    centers = [v.center() for v in vertices]
    bounds = tuple(
        (min(trans(c, d) for c in centers), max(trans(c, d) for c in centers))
        for d in POSITIVE_ROOTS
    )
    boxes = tuple(
        tuple(
            b
            for o, (lo, hi) in zip(offsets, bounds)
            for b in (-((o - lo) // 9), (hi - o) // 9)  # lo <= o + 9 * l <= hi
        )
        for offsets in _FIN_SLABS
    )
    return bounds, boxes


def hexagon(w):
    """The Bruhat hexagon of a non-spiral w (vertices counterclockwise)."""
    if is_spiral(w):
        raise SpiralInputError("spiral element has no hexagon: %s" % display_word(w))
    return hull_of(w)


@functools.cache
def hull_of(w):
    """The hull of the interval below w.

    Off the strips its vertices are w, w1 = ra*w, w2 = rg*w1, w3 = rg*w,
    w4 = rg*w5, w5 = rb*w for the reflections ra, rb in the chamber walls
    and rg in the third hyperplane.  On them, for length at least 2, they
    are w, si*w, si*v3, v3 = si*sj*si*w, where si, sj are the finite
    reflections named by the first two letters i, j of the unique reduced
    word of w (the six half-strips are carried to each other by the
    diagram symmetries, which permute the letters); for l <= 1 the hull
    is the chain down to e.
    """
    if not is_spiral(w):
        hyperplanes = tuple(Reflection(*wall) for wall in chamber_walls(chamber_of(w)))
        ra, rb, rg = (r.element() for r in hyperplanes)
        w1, w5 = ra * w, rb * w
        vertices = (w, w1, rg * w1, rg * w, rg * w5, w5)
        return Hull(w, vertices, *_bounds(vertices), hyperplanes, chamber_parity(w))
    if length(w) <= 1:
        vertices = (w,) if w == E else (w, E)
    else:
        i, j = half_strip_pattern(w)
        si, sj = SIMPLES[i], SIMPLES[j]
        v3 = (si * sj * si) * w
        vertices = (w, si * w, si * v3, v3)
    return Hull(w, vertices, *_bounds(vertices))


def leq(x, w):
    """Bruhat order x <= w, decided by hull membership."""
    return hull_of(w).contains(x)


class NotComparableError(ValueError):
    """x <= w was required but does not hold."""


def require_below(x, w):
    """Raise NotComparableError unless x <= w."""
    if not leq(x, w):
        raise NotComparableError("%s is not below %s" % (display_word(x), display_word(w)))


def leq_oracle(x, w):
    """Independent subexpression test: forward scan over a reduced word of w."""
    return x in oracle_interval(w)


def oracle_interval(w):
    """All x <= w, computed as products of subexpressions of a reduced word."""
    reachable = {E}
    for i in element_to_word(w):
        s = SIMPLES[i]
        reachable |= {z * s for z in reachable}
    return reachable


def interval(w):
    """All x <= w, read off the hull row by row.

    A row is one p1 not divisible by 3; its centers are the p2 = p1 mod 3
    in the meet of the three slabs, which bound p2 through p1 + 2 * p2,
    2 * p1 + p2 and p1 - p2.  Rows and points come in increasing order.
    """
    (lo1, hi1), (lo2, hi2), (lot, hit) = hull_of(w).bounds
    # p1 = (trans_a2 + trans_at)/3
    out = set()
    for p1 in range(-((-(lo2 + lot)) // 3), (hi2 + hit) // 3 + 1):
        if p1 % 3 == 0:
            continue
        lo = max(-((p1 - lo1) // 2), lo2 - 2 * p1, p1 - hit)
        hi = min((hi1 - p1) // 2, hi2 - 2 * p1, p1 - lot)
        for p2 in range(lo + (p1 - lo) % 3, hi + 1, 3):
            out.add(element_from_center((p1, p2)))
    return out


def shell_of(h, center):
    """The k with the given center on the k-shell of hull h (the 0-shell is
    its boundary); a ValueError if the center lies outside h.  For an
    element x, call shell_of(h, x.center())."""
    # the three trans values read once, inlined
    cx, cy = center
    (lo1, hi1), (lo2, hi2), (lot, hit) = h.bounds
    s1, s2, st = cx + 2 * cy, 2 * cx + cy, cx - cy
    m = min(s1 - lo1, hi1 - s1, s2 - lo2, hi2 - s2, st - lot, hit - st)
    if m < 0:
        raise ValueError("element outside the hull of %s" % (h.owner,))
    assert m % 3 == 0
    return m // 3


# ---------------------------------------------------------------------------
# Diagonals and special segments (odd-chamber hexagons).

def diagonal_direction(hexagon_, i):
    """Direction of the diagonal through vertex i (not parallel to its edges).

    With (a, b, g) the roots of the hyperplanes, the edges at the owner run
    along the wall roots a and b, so its diagonal runs along g; round the
    hexagon the diagonals cycle through g, b, a.
    """
    a, b, g = (r.root for r in hexagon_.hyperplanes)
    return (g, b, a)[i % 3]


def diagonal_centers(hexagon_, i):
    """Centers in the hull on the root string through vertex i, transversally."""
    d = diagonal_direction(hexagon_, i)
    v = hexagon_.vertices[i].center()
    lo, hi = chords(hexagon_, v)[POSITIVE_ROOTS.index(d)]
    return string_centers(v, d, range(lo, hi + 1))


def special_segments(hexagon_):
    """Centers of the special segments on the special edges w1-w2 and w4-w5
    of an odd-chamber hexagon ([] for an even one or a spiral hull).

    A segment runs between the alcoves two in from each end of its edge,
    inclusive; it is nonempty exactly when the edge holds at least six
    alcoves.
    """
    if hexagon_.parity != "odd":
        return []
    edges = (hexagon_.edge(1), hexagon_.edge(4))
    return [e[2:len(e) - 2] if len(e) >= 6 else [] for e in edges]


def hexagon_to_dict(hexagon_):
    """JSON form: owner and vertices in word syntax, hyperplanes as pairs."""
    return {
        "owner": format_word(hexagon_.owner),
        "hyperplanes": [
            {"root": list(r.root), "level": r.level} for r in hexagon_.hyperplanes
        ],
        "vertices": [format_word(v) for v in hexagon_.vertices],
    }

"""Bruhat order on the affine Weyl group of type A2~, via convex hulls.

For every w the lower interval {x : x <= w} is the set of alcove centers in
a convex polygon: a hexagon with vertices given by three reflections of w
when w lies in a chamber, and a degenerate quadrilateral (or a two-element
chain) when w is spiral.  Membership is decided by three pairs of
half-plane inequalities in the scaled integer coordinates, one pair per
positive root direction.

A Hexagon carries its slab bounds, so it serves as the hull of its owner's
interval, and hull_of is the one memo of hulls: the Hexagon off the strips,
degenerate_hull on them.  Lines are (direction, trans value) pairs;
line_meet intersects two of them exactly, and triangle_test decides
membership in the closed triangle that three of them cut out.

An independent subexpression oracle (forward dynamic program over a reduced
word) is provided for cross-checking.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .alcove import (
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
    half_strip_pattern,
    is_center,
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


# Change of the scaled coordinate pair for one center-to-center step along a
# string in direction d: alternately one third and two thirds of a root.
_STEP = {
    (1, 0): ((2, -1), (4, -2)),
    (0, 1): ((-1, 2), (-2, 4)),
    (1, 1): ((1, 1), (2, 2)),
}


def string_step(point, direction, sign=1):
    """The next center on the string through `point` in direction sign*d."""
    for dx, dy in _STEP[direction]:
        cand = (point[0] + sign * dx, point[1] + sign * dy)
        if is_center(cand):
            return cand
    raise AssertionError("no center step from %r" % (point,))


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
    sign = 1 if pairing(q, d) > pairing(p, d) else -1
    out = [p]
    cur = p
    while cur != q:
        cur = string_step(cur, d, sign)
        out.append(cur)
    return out


class Hull(NamedTuple):
    """Convex hull of a Bruhat interval: vertex elements plus slab bounds."""

    owner: object
    vertices: tuple
    bounds: tuple  # ((lo, hi) per direction, in POSITIVE_ROOTS order)

    def contains(self, point):
        # trans(point, d) for the three directions, inlined: leq runs here
        x, y = point
        (lo1, hi1), (lo2, hi2), (lot, hit) = self.bounds
        return lo1 <= x + 2 * y <= hi1 and lo2 <= 2 * x + y <= hi2 and lot <= x - y <= hit


class Hexagon(NamedTuple):
    """The Bruhat hexagon of a non-spiral element, which is also its hull.

    vertices[0] is the owner; vertices run counterclockwise.  hyperplanes
    holds the two chamber walls (counterclockwise one first) and the third
    hyperplane closest to the owner, each as a Reflection.  bounds are the
    slab bounds of the hull, as in Hull.
    """

    owner: object
    hyperplanes: tuple
    vertices: tuple
    parity: str
    bounds: tuple

    contains = Hull.contains

    def edge(self, i):
        """Centers along the edge from vertex i to vertex i+1, inclusive."""
        a = self.vertices[i].center()
        b = self.vertices[(i + 1) % 6].center()
        return centers_between(a, b)


def _bounds(vertices):
    centers = [v.center() for v in vertices]
    return tuple(
        (min(trans(c, d) for c in centers), max(trans(c, d) for c in centers))
        for d in POSITIVE_ROOTS
    )


def hexagon(w):
    """The Bruhat hexagon of a non-spiral w (vertices counterclockwise)."""
    if is_spiral(w):
        raise SpiralInputError("spiral element has no hexagon: %s" % display_word(w))
    return hull_of(w)


@functools.cache
def hull_of(w):
    """The hull of the interval below w: its Hexagon off the strips, and
    degenerate_hull(w) on them."""
    if is_spiral(w):
        return degenerate_hull(w)
    (a, i), (b, j), (g, k) = chamber_walls(chamber_of(w))
    ra = Reflection(a, i).element()
    rb = Reflection(b, j).element()
    rg = Reflection(g, k).element()
    w1 = ra * w
    w5 = rb * w
    w3 = rg * w
    w2 = rg * w1
    w4 = rg * w5
    vertices = (w, w1, w2, w3, w4, w5)
    return Hexagon(
        owner=w,
        hyperplanes=(Reflection(a, i), Reflection(b, j), Reflection(g, k)),
        vertices=vertices,
        parity=chamber_parity(w),
        bounds=_bounds(vertices),
    )


def degenerate_hull(w):
    """The hull of a spiral element: a quadrilateral, or a chain for l <= 1.

    For length at least 2 the vertices are w, r*w, r'r*w, rr'r*w where r, r'
    are the finite reflections s_i, s_j named by the first two letters i, j
    of the unique reduced word of w; the six half-strips are carried to each
    other by the diagram symmetries, which permute the letters.
    """
    if not is_spiral(w):
        raise ValueError("not a spiral element: %s" % (w,))
    n = length(w)
    if n <= 1:
        vertices = (w,) if n == 0 else (w, E)
    else:
        i, j = half_strip_pattern(w)
        si, sj = SIMPLES[i], SIMPLES[j]
        v3 = (si * sj * si) * w
        vertices = (w, si * w, si * v3, v3)
    return Hull(w, vertices, _bounds(vertices))


def leq(x, w):
    """Bruhat order x <= w, decided by hull membership."""
    return hull_of(w).contains(x.center())


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
    """All x <= w, enumerated by scanning the hull's bounding box."""
    h = hull_of(w)
    (lo1, hi1), (lo2, hi2), (lot, hit) = h.bounds
    # p1 = (trans_a2 + trans_at)/3, p2 = (trans_a1 - trans_at)/3
    p1_lo = -((-(lo2 + lot)) // 3)
    p1_hi = (hi2 + hit) // 3
    out = []
    for p1 in range(p1_lo, p1_hi + 1):
        if p1 % 3 == 0:
            continue
        p2_lo = -((-(lo1 - p1)) // 2)
        p2_hi = (hi1 - p1) // 2
        for p2 in range(p2_lo, p2_hi + 1):
            c = (p1, p2)
            if is_center(c) and h.contains(c):
                out.append(element_from_center(c))
    return set(out)


def shell_index(h, x):
    """The k with x on the k-shell of the hull (0-shell is the boundary)."""
    c = x.center() if hasattr(x, "center") else x
    if not h.contains(c):
        raise ValueError("element outside the hull of %s" % (h.owner,))
    m = min(
        min(trans(c, d) - lo, hi - trans(c, d))
        for d, (lo, hi) in zip(POSITIVE_ROOTS, h.bounds)
    )
    assert m % 3 == 0
    return m // 3


# ---------------------------------------------------------------------------
# Diagonals and special segments (odd-chamber hexagons).

def _edge_direction(hexagon_, i):
    a = hexagon_.vertices[i].center()
    b = hexagon_.vertices[(i + 1) % 6].center()
    if a == b:
        return None
    return string_direction(a, b)


def diagonal_direction(hexagon_, i):
    """Direction of the diagonal through vertex i (not parallel to its edges)."""
    used = {
        _edge_direction(hexagon_, i),
        _edge_direction(hexagon_, (i - 1) % 6),
    }
    used.discard(None)
    free = [d for d in POSITIVE_ROOTS if d not in used]
    assert len(free) == 1, "degenerate hexagon at vertex %d" % i
    return free[0]


def diagonal_centers(hexagon_, i):
    """Centers in the hull on the root string through vertex i, transversally."""
    d = diagonal_direction(hexagon_, i)
    v = hexagon_.vertices[i].center()
    out = [v]
    for sign in (1, -1):
        cur = v
        while True:
            cur = string_step(cur, d, sign)
            if not hexagon_.contains(cur):
                break
            out.append(cur)
    out.sort(key=lambda p: pairing(p, d))
    return out


SPECIAL_EDGE_INDICES = ((1, 2), (4, 5))


def special_edges(hexagon_):
    """The two special edges (vertex index pairs) of an odd-chamber hexagon."""
    if hexagon_.parity != "odd":
        return []
    return list(SPECIAL_EDGE_INDICES)


def special_segment(hexagon_, edge):
    """Centers of the special segment on the given special edge (maybe empty).

    The segment runs between the alcoves two in from each end of the edge,
    inclusive; it is nonempty exactly when the edge holds at least six
    alcoves.
    """
    i, _ = edge
    alcoves = hexagon_.edge(i)
    if len(alcoves) < 6:
        return []
    return alcoves[2:len(alcoves) - 2]


def special_segments(hexagon_):
    """Segments of the special edges, in special_edges order ([] if even)."""
    return [special_segment(hexagon_, edge) for edge in special_edges(hexagon_)]


def diagonals_and_special(hexagon_):
    """Per-vertex diagonals plus special edges and segments.

    Returns (diagonals, edges, segments): diagonals maps each vertex index
    to the centers of its interior diagonal; edges is the list of special
    edge index pairs (empty in even chambers); segments the matching center
    lists.
    """
    diagonals = {i: diagonal_centers(hexagon_, i) for i in range(6)}
    return diagonals, special_edges(hexagon_), special_segments(hexagon_)


def hexagon_to_dict(hexagon_):
    """JSON form: owner and vertices in word syntax, hyperplanes as pairs."""
    from .alcove import format_word

    return {
        "owner": format_word(hexagon_.owner),
        "hyperplanes": [
            {"root": list(r.root), "level": r.level} for r in hexagon_.hyperplanes
        ],
        "vertices": [format_word(v) for v in hexagon_.vertices],
    }

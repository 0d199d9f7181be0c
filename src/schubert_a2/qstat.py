"""The Carrell-Peterson statistic q and the non-rationally-smooth locus.

For x <= w, q(w, x) is the number of reflections r with r*x <= w, less
l(w).  Two independent routes are implemented:

* q_brute counts reflections directly, off the hull's slab bounds and the
  three slab values of x's center: on each root string through x the
  partners are the multiples of 9 in an integer interval whose ends are
  sums of one bound and one slab value (_reflection_count), counted in
  closed form without listing them;
* q_structured evaluates the closed form: one table of values on the 0-,
  1- and 2-shells by chamber parity and type, plus the base-case interiors,
  walked down the translation chain q(t(a)w, x) = q(w, x) + 2 from w to
  its base case.  Each step narrows the hull by three shells.

For a non-spiral w the point x is non-rationally-smooth (nrs) in the
Schubert variety of w exactly when q(w, x) > 0, read from one q_table.
For spiral w the nrs set is the down-closure of the q > 0 points; their
maximal elements are one or two deletions from the one reduced word of w
(maximal_nrs), and the nrs set is the down-closure of those.  nrs(w, x)
reads no q table: it asks whether x lies below a maximal nrs point.
lookup_holds checks that one reflection step up from x finds that set.
The partners of x on its d-string are the centers there with d-pairing
-pairing(x, d) mod 6, and the rank rule (_above) tells those above x, so
one pass over the q > 0 points, keeping the highest rank per string and
residue class, decides every x without listing a partner.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .alcove import (
    POSITIVE_ROOTS,
    SIMPLES,
    SpiralInputError,
    ascents,
    chamber_of,
    descent_group,
    descents,
    display_word,
    element_from_center,
    format_word,
    format_words,
    is_spiral,
    is_twisted_spiral,
    length,
    orientation,
    pairing,
    strip_directions,
    translate_out_of_chamber,
    type_of,
    word_deletions,
)
from .bruhat import (
    NotComparableError,  # noqa: F401  (re-exported)
    diagonal_direction,
    hull_of,
    interval,
    leq,
    require_below,
    shell_of,
    special_segments,
    trans,
    triangle_test,
)


def _reflection_count(h, c):
    """The number of reflection partners of the center c in hull h, or None
    when c lies outside h, read off the slab bounds.

    c = (x, y) has slab values s1 = x + 2y, s2 = 2x + y, st = x - y, and
    lies in h exactly when each is within its bounds.  A partner on the
    d-string through c sits at t with t = -p mod 3, p = pairing(c, d), so
    u = 3 * (p + t) is a multiple of 9; the two slabs the string crosses
    bound u by sums of one bound and one slab value.  Per string the count
    is the multiples of 9 in that u-interval, which holds u = 3p (t = 0).
    """
    x, y = c
    s1, s2, st = x + 2 * y, 2 * x + y, x - y
    (lo1, hi1), (lo2, hi2), (lot, hit) = h.bounds
    if not (lo1 <= s1 <= hi1 and lo2 <= s2 <= hi2 and lot <= st <= hit):
        return None
    return (
        min(hi2 + st, hit + s2) // 9 - (max(lo2 + st, lot + s2) - 1) // 9
        + min(hi1 - st, s1 - lot) // 9 - (max(lo1 - st, s1 - hit) - 1) // 9
        + min(hi1 + s2, hi2 + s1) // 9 - (max(lo1 + s2, lo2 + s1) - 1) // 9
    )


def q_brute(w, x):
    """The number of reflections r with r*x <= w, less l(w), counted off
    the hull's slab bounds."""
    n = _reflection_count(hull_of(w), x.center())
    if n is None:
        require_below(x, w)
        raise AssertionError("slab and hull membership disagree")
    return n - length(w)


def is_base_case(w):
    """Non-spiral w not obtained by translation into its chamber."""
    w2 = translate_out_of_chamber(w)
    return is_spiral(w2) or chamber_of(w2) != chamber_of(w)


# ---------------------------------------------------------------------------
# Base cases.  In any chamber the alcove of a base-case element shares an
# edge (type 1) or a vertex (type 2) with a fundamental strip.

class _Base4Geometry(NamedTuple):
    lines: dict  # u-index -> (direction, trans value)
    in_red: object  # membership test of the red triangle (lines of D0, D4, D5)
    blue: dict  # (direction, value) -> list of segment centers (shell >= 2)


@functools.cache
def _base4_geometry(w):
    hx = hull_of(w)
    segs = special_segments(hx)
    nonempty = [i for i, s in enumerate(segs) if s]
    assert len(nonempty) == 1, "base case 4 has one special segment"
    if nonempty[0] == 0:
        order = list(range(6))  # u_i = w_i (special edge is vertices 1-2)
    else:
        order = [0, 5, 4, 3, 2, 1]  # u_i = w_{6-i} (special edge is 4-5)
    lines = {}
    for ui, oi in enumerate(order):
        d = diagonal_direction(hx, oi)
        lines[ui] = (d, trans(hx.vertices[oi].center(), d))
    assert lines[0] == lines[3]
    assert lines[1][0] == lines[4][0] and lines[2][0] == lines[5][0]

    # the centers at shell 2 or deeper, read off the interval once
    inner = [c for c in (x.center() for x in interval(w)) if shell_of(hx, c) >= 2]
    blue = {}
    for i, j in ((1, 4), (2, 5)):
        d = lines[i][0]
        a, b = sorted((lines[i][1], lines[j][1]))
        assert b - a == 9, "parallel diagonals are three strings apart"
        for v in (a + 3, a + 6):
            seg = [c for c in inner if trans(c, d) == v]
            seg.sort(key=lambda c: pairing(c, d))
            blue[(d, v)] = seg
    red = triangle_test([lines[0], lines[4], lines[5]])
    return _Base4Geometry(lines, red, blue)


def _base4_interior_value(w, c):
    geom = _base4_geometry(w)
    if geom.in_red(c):
        return 2
    for i in (1, 2):
        d, t = geom.lines[i]
        if trans(c, d) == t:
            return 1
    for (d, t), seg in geom.blue.items():
        if trans(c, d) == t:
            assert c in seg
            end = orientation(seg[0])
            assert orientation(seg[-1]) == end, "blue segment ends differ"
            return 2 if orientation(c) == end else 1
    raise AssertionError(
        "interior center %s of %s not in the red/green/blue partition" % (c, w)
    )


# ---------------------------------------------------------------------------
# One shell table, walked down the translation chain.

class _Level:
    """One owner of the translation chain of a non-spiral w: w, then each
    translate_out_of_chamber down to the base case.  The level below and
    the R(owner)-orbit of the special segments are built when a walk first
    reads them, and kept for the table's later points.

    R(w) is a group, so the R(w)-orbit of x meets a special segment exactly
    when x's center lies in the segments' R(w)-orbit.
    """

    def __init__(self, w):
        self.owner = w
        self.hull = hull_of(w)
        self.is_base = is_base_case(w)
        self.type = type_of(w)

    @functools.cached_property
    def below(self):
        return _Level(translate_out_of_chamber(self.owner))

    @functools.cached_property
    def special(self):
        rw = descent_group(self.owner)
        return frozenset(
            (element_from_center(c) * u).center()
            for seg in special_segments(self.hull) for c in seg for u in rw
        )


def _shell_value(level, c, k):
    """q at the center c on the k-shell of the level's owner, by chamber
    parity and type; only a base case is asked about its interior (k >= 3)."""
    hx, t = level.hull, level.type
    if hx.parity == "even":
        return 0 if t == 1 or k <= 1 else 1
    if k <= 1 or (k == 2 and t == 1):
        return 1 if c in level.special else 0
    if t == 1:
        return 1
    if k == 2:
        # 2 on the 2-shell edges two strings in from a special edge, 1
        # elsewhere.  The special edge from w1 to w2 = r_gamma w1 runs along
        # the root gamma of the third hyperplane.
        d = hx.hyperplanes[2].root
        lo, hi = hx.bounds[POSITIVE_ROOTS.index(d)]
        return 2 if trans(c, d) in (lo + 6, hi - 6) else 1
    return _base4_interior_value(level.owner, c)


def _q_walk(top, c, k):
    """(q, provenance tag) of the center c on the k-shell of the chain's top
    owner: c moves down while on the 3-shell or deeper and above the base
    case, 2 per level."""
    level, j = top, 0
    while k >= 3 and not level.is_base:
        level, j = level.below, j + 1
        k = shell_of(level.hull, c)
    q = _shell_value(level, c, k) + 2 * j
    if j:
        return q, "translation"
    return q, "base-case" if top.is_base else "outer-shell"


def q_structured(w, x):
    """Closed-form q(w, x) for non-spiral w: one shell table, walked down
    the translation chain."""
    if is_spiral(w):
        raise SpiralInputError(
            "q_structured needs a non-spiral element: %s" % display_word(w)
        )
    require_below(x, w)
    top, c = _Level(w), x.center()
    return _q_walk(top, c, shell_of(top.hull, c))[0]


def q_value(w, x):
    """q(w, x) by the structured route off the strips, brute on them."""
    if is_spiral(w):
        return q_brute(w, x)
    return q_structured(w, x)


class QTable(NamedTuple):
    """All q-values over the interval of one owner, with provenance tags."""

    owner: object
    entries: dict  # x -> (q, tag)

    def q(self, x):
        return self.entries[x][0]

    def nrs(self):
        """The nrs points: q > 0 off the strips; for a spiral owner the
        members below its maximal nrs points."""
        if is_spiral(self.owner):
            return down_closure(self.entries, maximal_nrs(self.owner))
        return {x for x, (q, _) in self.entries.items() if q > 0}

    def to_dict(self):
        words = format_words(self.entries)
        return {
            "owner": format_word(self.owner),
            "entries": [
                {"x": words[x], "q": self.entries[x][0], "tag": self.entries[x][1]}
                for x in sorted(words, key=lambda x: (len(words[x]), words[x]))
            ],
        }


def _walk_rows(w):
    """(x, k, (q, tag)) for every x <= w, a non-spiral w, with k the shell
    of x on w's hull: each member's center and top shell are read once,
    and _q_walk takes them from there."""
    top = _Level(w)
    h = top.hull
    for x in interval(w):
        c = x.center()
        k = shell_of(h, c)
        yield x, k, _q_walk(top, c, k)


def q_table(w):
    if is_spiral(w):
        return QTable(w, {x: (q_brute(w, x), "brute") for x in interval(w)})
    return QTable(w, {x: qt for x, _, qt in _walk_rows(w)})


# ---------------------------------------------------------------------------
# The nrs locus.

def nrs(w, x):
    """Is x non-rationally-smooth in the Schubert variety of w?  The nrs
    locus is closed: x lies below one of its (at most three) maximal points."""
    require_below(x, w)
    return any(leq(x, z) for z in maximal_nrs(w))


def down_closure(members, tops):
    """The members lying below some element of tops.

    x <= y is membership of x in y's hull (as in leq).  A member lies below
    some top exactly when it lies below a maximal one, so each member is
    tested against the hulls of the maximal tops only.
    """
    hulls = [hull_of(y) for y in bruhat_maximal(tops)]
    return {x for x in members if any(h.contains(x) for h in hulls)}


def bruhat_maximal(elements):
    """Maximal elements of a finite set under the Bruhat order.

    Taken longest first, x is kept exactly when no kept hull holds x
    (x <= y as in leq): anything above x is longer, so it came earlier and
    lies below a kept element.  Only kept elements get a hull.
    """
    kept = {}
    for x in sorted(elements, key=length, reverse=True):
        if not any(h.contains(x) for h in kept.values()):
            kept[x] = hull_of(x)
    return set(kept)


def is_rationally_smooth(w):
    """Whether the Schubert variety of w is rationally smooth everywhere."""
    n = length(w)
    if n <= 3:
        return True
    if is_spiral(w):
        return False
    if n == 4:
        return True  # both length-4 base-case families
    return is_twisted_spiral(w)


def _z_pair(w):
    """wstu and wsut for the unique right descent s and ascents t < u."""
    s = SIMPLES[next(iter(descents(w)))]
    t, u = (SIMPLES[i] for i in sorted(ascents(w)))
    return (w * s * t * u, w * s * u * t)


def _split_in_chamber(w, pair):
    ch = chamber_of(w)
    inside = [z for z in pair if not is_spiral(z) and chamber_of(z) == ch]
    outside = [z for z in pair if z not in inside]
    assert len(inside) == 1 and len(outside) == 1
    return inside[0], outside[0]


def _reflect_across_other_wall(hx, z2):
    """Mirror z2 across the chamber wall not bounding the strip containing it."""
    dirs = strip_directions(z2.center())
    (other,) = [r for r in hx.hyperplanes[:2] if r.root not in dirs]
    return other.element() * z2


def _spiral_maximal_nrs(w):
    """The maximal nrs points of a spiral w: none for n = l(w) <= 3, else
    del{0,1,2}, the right factor a_3 ... a_{n-1} of the one reduced word
    a_0 ... a_{n-1}, and del{0,1,n-2} too when n >= 6 is even (del(P) as in
    alcove.word_deletions).  It agrees with the maximal q > 0 points for
    every spiral owner with n <= 24."""
    n = length(w)
    if n <= 3:
        return frozenset()
    deleted = ({0, 1, 2},) + (({0, 1, n - 2},) if n >= 6 and n % 2 == 0 else ())
    return frozenset(word_deletions(w, deleted))


@functools.cache
def maximal_nrs(w):
    """The Bruhat-maximal nrs points below w, as a frozenset.

    Closed form for non-spiral w of length at least 6 (the four cases by
    chamber parity and type, with base-case adjustments), the length-5
    exception for odd chambers, and one or two word deletions for spiral w
    (_spiral_maximal_nrs).
    """
    if is_spiral(w):  # the identity included
        return _spiral_maximal_nrs(w)
    if is_rationally_smooth(w):
        return frozenset()
    n = length(w)
    hx = hull_of(w)
    t = type_of(w)
    if n < 6:
        assert n == 5 and hx.parity == "odd" and t == 2
        return frozenset({translate_out_of_chamber(w)})
    if hx.parity == "even":
        if t == 1:
            return frozenset({translate_out_of_chamber(w)})
        pair = _z_pair(w)
        if is_base_case(w):
            return frozenset({_split_in_chamber(w, pair)[0]})
        return frozenset(pair)
    # the special segment endpoints next to vertices 1 and 5
    seg1, seg2 = special_segments(hx)
    ps = frozenset(element_from_center(c) for c in seg1[:1] + seg2[-1:])
    if t == 1:
        return ps
    pair = _z_pair(w)
    if is_base_case(w):
        z1, z2 = _split_in_chamber(w, pair)
        assert len(ps) == 1
        return ps | {z1, _reflect_across_other_wall(hx, z2)}
    return ps.union(pair)


def codimension(w, points):
    """Codimension in the Schubert variety of w of the locus whose maximal
    points are given, or None when there are none."""
    if not points:
        return None
    return length(w) - max(map(length, points))


def nrs_codimension(w):
    """Codimension of the nrs locus, or None when rationally smooth."""
    return codimension(w, maximal_nrs(w))


def _strings(c):
    """(direction index, trans value, pairing) of the three root strings
    through the center c = (x, y), in POSITIVE_ROOTS order."""
    x, y = c
    return ((0, x + 2 * y, x), (1, 2 * x + y, y), (2, x - y, x + y))


def _rank(p):
    """p for p > 0, else 3 - p: of two reflection partners on a string with
    pairings p and q, the one of larger rank lies above (_above)."""
    return p if p > 0 else 3 - p


def _above(q, p):
    """Whether the reflection partner with d-pairing q of the center with
    d-pairing p (q = -p mod 6, on one d-string) lies above it.

    The reflection fixes the line at pairing (p + q) / 2, and r*x > x
    exactly when that line does not separate x from the fundamental
    alcove, whose pairings lie strictly between 0 and 3; on the partners
    of one center that is rank(q) > rank(p).
    """
    return _rank(q) > _rank(p)


def lookup_holds(w):
    """One-step reflection lookup detects nrs at every x <= w.

    q(w, x) > 0 is the reflection count off the slab bounds.  The partners
    of x on its d-string are the centers there whose d-pairing is
    -pairing(x, d) mod 6, so no partner is listed: one pass over the q > 0
    points keeps, per string and residue class, the pairing of highest
    rank, and x is looked up when it is q > 0 or one of its three partner
    classes holds a q > 0 point above it (_above).
    """
    h, n = hull_of(w), length(w)
    centers = {x: x.center() for x in interval(w)}
    positive = {x for x, c in centers.items() if _reflection_count(h, c) > n}
    top = {}  # (direction, trans, pairing mod 6) -> the q > 0 pairing of highest rank
    for x in positive:
        for d, s, p in _strings(centers[x]):
            key = d, s, p % 6
            if key not in top or _rank(p) > _rank(top[key]):
                top[key] = p
    truly_nrs = down_closure(centers, positive)

    def looked_up(x):
        if x in positive:
            return True
        for d, s, p in _strings(centers[x]):
            q = top.get((d, s, -p % 6))
            if q is not None and _above(q, p):
                return True
        return False

    return all((x in truly_nrs) == looked_up(x) for x in centers)

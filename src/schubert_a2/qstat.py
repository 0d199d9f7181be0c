"""The Carrell-Peterson statistic q and the non-rationally-smooth locus.

For x <= w, n(w, x) counts the reflections r with r*x <= w, and
q(w, x) = n(w, x) - l(w).  Two independent routes are implemented:

* q_brute counts reflections directly by walking the three root strings
  through x inside the hull of w;
* q_structured evaluates the closed-form description: four base-case
  profiles, fixed values on the 0-, 1- and 2-shells by chamber parity and
  type, and the translation recursion q(t(a)w, x) = q(w, x) + 2 elsewhere.

For a non-spiral w the point x is non-rationally-smooth (nrs) in the
Schubert variety of w exactly when q(w, x) > 0; for spiral w the nrs test
is the existential scan over the upper interval.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .alcove import (
    E,
    POSITIVE_ROOTS,
    SIMPLES,
    SpiralInputError,
    ascents,
    chamber_of,
    chamber_parity,
    descent_group,
    descents,
    display_word,
    element_from_center,
    is_spiral,
    is_twisted_spiral,
    length,
    orientation,
    pairing,
    translate_out_of_chamber,
    type_of,
)
from .bruhat import (
    diagonal_direction,
    hull_of,
    interval,
    leq,
    shell_index,
    special_segments,
    string_step,
    trans,
    triangle_test,
)


class NotComparableError(ValueError):
    """x <= w was required but does not hold."""


def require_below(x, w):
    """Raise NotComparableError unless x <= w."""
    if not leq(x, w):
        raise NotComparableError(
            "%s is not below %s" % (display_word(x), display_word(w))
        )


def reflection_partners(w, x):
    """Centers y = r(x) inside the hull of w, per positive root direction.

    A reflection r = s_{d,k} carries x to the center y on the d-string
    through x with scaled pairings summing to 6k; those are exactly the
    centers of opposite orientation class mod 6 on the string.
    """
    h = hull_of(w)
    cx = x.center()
    out = []
    for d in POSITIVE_ROOTS:
        px = pairing(cx, d)
        for sign in (1, -1):
            cur = cx
            while True:
                cur = string_step(cur, d, sign)
                if not h.contains(cur):
                    break
                if (pairing(cur, d) + px) % 6 == 0:
                    out.append((d, cur))
    return out


def n_brute(w, x):
    """Number of reflections r with r*x <= w."""
    require_below(x, w)
    return len(reflection_partners(w, x))


def q_brute(w, x):
    return n_brute(w, x) - length(w)


def reflections_over(w, x):
    """Elements r*x <= w with r*x > x (one reflection step up inside w)."""
    lx = length(x)
    out = []
    for _, c in reflection_partners(w, x):
        y = element_from_center(c)
        if length(y) > lx:
            out.append(y)
    return out


def is_base_case(w):
    """Non-spiral w not obtained by translation into its chamber."""
    w2 = translate_out_of_chamber(w)
    return is_spiral(w2) or chamber_of(w2) != chamber_of(w)


def _orbit_centers(w, x):
    return {(x * u).center() for u in descent_group(w, "right")}


def _orbit_meets_special(w, hx, x):
    orbit = _orbit_centers(w, x)
    for seg in special_segments(hx):
        if orbit.intersection(seg):
            return True
    return False


def _outer_shell_value(w, hx, x, k):
    """Value of q on the 0-, 1- or 2-shell, by chamber parity and type."""
    t = type_of(w)
    if hx.parity == "even":
        if t == 1:
            return 0
        return 0 if k <= 1 else 1
    if t == 1 or k <= 1:
        return 1 if _orbit_meets_special(w, hx, x) else 0
    # type 2, odd chamber, 2-shell: 2 on the 2-shell edges two strings in
    # from a special edge, 1 elsewhere.  The special edge from w1 to
    # w2 = r_gamma w1 runs along the root gamma of the third hyperplane.
    d = hx.hyperplanes[2].root
    lo, hi = hx.bounds[POSITIVE_ROOTS.index(d)]
    tx = trans(x.center(), d)
    return 2 if tx in (lo + 6, hi - 6) else 1


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

    def segment_on(d, value):
        out = []
        for x in interval(w):
            c = x.center()
            if trans(c, d) == value and shell_index(hx, x) >= 2:
                out.append(c)
        out.sort(key=lambda c: pairing(c, d))
        return out

    blue = {}
    for i, j in ((1, 4), (2, 5)):
        d = lines[i][0]
        a, b = sorted((lines[i][1], lines[j][1]))
        assert b - a == 9, "parallel diagonals are three strings apart"
        for v in (a + 3, a + 6):
            blue[(d, v)] = segment_on(d, v)
    red = triangle_test([lines[0], lines[4], lines[5]])
    return _Base4Geometry(lines, red, blue)


def _base4_interior_value(w, x):
    geom = _base4_geometry(w)
    c = x.center()
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
        "interior alcove %s of %s not in the red/green/blue partition" % (x, w)
    )


def _base_case_value(w, hx, x, k):
    t = type_of(w)
    n = length(w)
    if hx.parity == "even":
        if t == 1:
            # twisted spiral: rationally smooth everywhere
            return 0
        if n == 4:
            return 0
        return 0 if k <= 1 else 1
    if t == 1:
        if n == 4:
            return 0
        if k <= 2:
            return 1 if _orbit_meets_special(w, hx, x) else 0
        return 1
    if n == 5:
        return 0 if k <= 1 else 2
    if k <= 1:
        return 1 if _orbit_meets_special(w, hx, x) else 0
    return _base4_interior_value(w, x)


def q_structured(w, x):
    """Closed-form q(w, x) for non-spiral w: base cases, outer shells, and
    the +2 translation recursion."""
    if is_spiral(w):
        raise SpiralInputError(
            "q_structured needs a non-spiral element: %s" % display_word(w)
        )
    require_below(x, w)
    return _q_structured(w, x)


def _q_structured(w, x):
    hx = hull_of(w)
    k = shell_index(hx, x)
    if is_base_case(w):
        return _base_case_value(w, hx, x, k)
    if k <= 2:
        return _outer_shell_value(w, hx, x, k)
    return _q_structured(translate_out_of_chamber(w), x) + 2


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

    def to_dict(self):
        from .alcove import format_word

        items = sorted(
            self.entries.items(), key=lambda kv: (length(kv[0]), format_word(kv[0]))
        )
        return {
            "owner": format_word(self.owner),
            "entries": [
                {"x": format_word(x), "q": q, "tag": tag} for x, (q, tag) in items
            ],
        }


def q_table(w):
    entries = {}
    if is_spiral(w):
        for x in interval(w):
            entries[x] = (q_brute(w, x), "brute")
        return QTable(w, entries)
    hx = hull_of(w)
    base = is_base_case(w)
    for x in interval(w):
        k = shell_index(hx, x)
        if base:
            entries[x] = (_base_case_value(w, hx, x, k), "base-case")
        elif k <= 2:
            entries[x] = (_outer_shell_value(w, hx, x, k), "outer-shell")
        else:
            entries[x] = (_q_structured(translate_out_of_chamber(w), x) + 2, "translation")
    return QTable(w, entries)


# ---------------------------------------------------------------------------
# The nrs locus.

def nrs(w, x):
    """Is x non-rationally-smooth in the Schubert variety of w?"""
    require_below(x, w)
    if not is_spiral(w):
        return q_structured(w, x) > 0
    return any(q_brute(w, y) > 0 for y in interval(w) if leq(x, y))


def nrs_set(w):
    """All x <= w that are nrs in the Schubert variety of w."""
    members = interval(w)
    positive = [y for y in members if q_value(w, y) > 0]
    if not is_spiral(w):
        return set(positive)
    return {x for x in members if any(leq(x, y) for y in positive)}


def bruhat_maximal(elements):
    """Maximal elements of a finite set under the Bruhat order."""
    elements = list(elements)
    return {
        x
        for x in elements
        if not any(y != x and leq(x, y) for y in elements)
    }


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


def maximal_nrs_generic(w):
    return bruhat_maximal(nrs_set(w))


def _z_pair(w):
    """wstu and wsut for the unique right descent s and ascents t < u."""
    s = SIMPLES[next(iter(descents(w, "right")))]
    t, u = (SIMPLES[i] for i in sorted(ascents(w, "right")))
    return (w * s * t * u, w * s * u * t)


def _split_in_chamber(w, pair):
    ch = chamber_of(w)
    inside = [z for z in pair if not is_spiral(z) and chamber_of(z) == ch]
    outside = [z for z in pair if z not in inside]
    assert len(inside) == 1 and len(outside) == 1
    return inside[0], outside[0]


def _reflect_across_other_wall(w, hx, z2):
    """Mirror z2 across the chamber wall not bounding the strip containing it."""
    walls = hx.hyperplanes[:2]
    in_strip = [r for r in walls if pairing(z2.center(), r.root) in (1, 2)]
    assert len(in_strip) == 1
    other = walls[0] if walls[1] == in_strip[0] else walls[1]
    return other.element() * z2


def maximal_nrs(w):
    """The Bruhat-maximal nrs points below w.

    Closed form for non-spiral w of length at least 6 (the four cases by
    chamber parity and type, with base-case adjustments), the length-5
    exception for odd chambers, and the generic scan for spiral w.
    """
    if w == E:
        return set()
    if is_spiral(w):
        return maximal_nrs_generic(w)
    if is_rationally_smooth(w):
        return set()
    n = length(w)
    hx = hull_of(w)
    t = type_of(w)
    if n < 6:
        assert n == 5 and hx.parity == "odd" and t == 2
        return {translate_out_of_chamber(w)}
    if hx.parity == "even":
        if t == 1:
            return {translate_out_of_chamber(w)}
        pair = _z_pair(w)
        if is_base_case(w):
            return {_split_in_chamber(w, pair)[0]}
        return set(pair)
    # the special segment endpoints next to vertices 1 and 5
    seg1, seg2 = special_segments(hx)
    ps = [element_from_center(c) for c in seg1[:1] + seg2[-1:]]
    if t == 1:
        return set(ps)
    pair = _z_pair(w)
    if is_base_case(w):
        z1, z2 = _split_in_chamber(w, pair)
        assert len(ps) == 1
        return {z1, _reflect_across_other_wall(w, hx, z2)} | set(ps)
    return set(pair) | set(ps)


def nrs_codimension(w):
    """Codimension of the nrs locus, or None when rationally smooth."""
    points = maximal_nrs(w)
    if not points:
        return None
    return length(w) - max(length(z) for z in points)


def shell_profile_consistent(w):
    """Optional consistency assertion for even-chamber owners.

    Away from the central triangle cut out by the three main diagonals, q
    should equal 2*(k//3) on the k-shell for a type 1 owner, with an extra
    +1 on shells k = 2 mod 3 for type 2.  Checked against the structured
    values; brute counting stays authoritative on any discrepancy.
    """
    if is_spiral(w) or chamber_parity(w) != "even":
        raise ValueError("even-chamber non-spiral owner required: %s" % (w,))
    hx = hull_of(w)
    lines = []
    for i in (0, 1, 2):
        d = diagonal_direction(hx, i)
        lines.append((d, trans(hx.vertices[i].center(), d)))
    in_triangle = triangle_test(lines)
    t = type_of(w)
    rw = descent_group(w, "right")
    tab = q_table(w)
    for x in tab.entries:
        if any(in_triangle((x * u).center()) for u in rw):
            continue
        k = shell_index(hx, x)
        expect = 2 * (k // 3) + (1 if (t == 2 and k % 3 == 2) else 0)
        if tab.q(x) != expect:
            return False
    return True


def lookup_holds(w):
    """One-step reflection lookup detects nrs at every x <= w."""
    members = interval(w)
    qmap = {x: q_brute(w, x) for x in members}
    positive = {x for x in members if qmap[x] > 0}
    for x in members:
        truly_nrs = any(leq(x, y) for y in positive)
        witnessed = qmap[x] > 0 or any(
            y in positive for y in reflections_over(w, x)
        )
        if truly_nrs != witnessed:
            return False
    return True

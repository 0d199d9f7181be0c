"""Reference walks for the arithmetic in src.

The stepping walk along root strings is the reference for the t-interval
arithmetic of bruhat.chords, string_centers and centers_between: it finds
each next center by trial and tests hull membership point by point.
string_chord lists a chord from that arithmetic in the walk's order.

contains is the reference for Hull.contains's lattice boxes: it builds
the point's three slab values and compares them with the hull's slab
bounds, and it takes any scaled point, wall points included.

interval is the reference for bruhat.interval's rows: it scans the hull's
bounding box and tests every candidate with is_center and contains.

centers_in_box is the reference for render._centers_in_viewport's rows:
it tests every integer point of the box with is_center.

lookup_holds is the reference for qstat.lookup_holds's arithmetic: it
turns every reflection partner into an element and compares lengths to
find the partners above x, and closes the nrs set downward pair by pair
with leq rather than through qstat.down_closure.

reflection_partners lists the reflection partners of x from the chords, in
the order of the stepping walk; q_brute counts them without listing.

maximal_nrs is the reference for qstat.maximal_nrs's closed forms: the
maximal points, pair by pair with leq, of the x <= w with q_brute(w, x) > 0.
The nrs set is that q > 0 set closed downward, so it has the same maximal
points.

psi_set is the reference for kumar.psi_set's chord arithmetic: it builds
every reflection partner's center, the Reflection carrying x there, and the
root whose reflection that is, found through kumar.root_to_reflection.

multiplicity_table is the reference for kumar's pair step: each partial
product z branches to z and z * s_i with its own division by z(b_i), the
two branches are added where they meet, and the parity sign of the word is
applied to the whole table at the end.

action_matrix is the reference for kumar._STEP's root images: it walks a
reduced word of w, found by element_to_word below, through
kumar.simple_root_action.

act is the matrix action of an element on a scaled point, the reference
for AffineElement.center's table of the images of Q0.

descents and element_to_word built on length(w * s_i) are the reference
for the wall table of alcove.descents and alcove.element_to_word: they
multiply by each simple reflection and compare lengths.
"""

import functools

from schubert_a2.alcove import (
    E,
    POSITIVE_ROOTS,
    SIMPLES,
    SIMPLE_INDICES,
    _FIN_PMATS,
    Reflection,
    element_from_center,
    is_center,
    length,
    pairing,
)
from schubert_a2.bruhat import (
    chords,
    hull_of,
    leq,
    require_below,
    string_centers,
    string_direction,
    trans,
)
from schubert_a2.kumar import (
    BETA,
    _FINITE_TRIPLES,
    is_positive_real_root,
    root_to_reflection,
    simple_root_action,
)
from schubert_a2.qstat import q_brute
from schubert_a2.rational import RationalNF

# Change of the scaled coordinate pair for one center-to-center step along a
# string in direction d: alternately one third and two thirds of a root.
_STEP = {
    (1, 0): ((2, -1), (4, -2)),
    (0, 1): ((-1, 2), (-2, 4)),
    (1, 1): ((1, 1), (2, 2)),
}
UNIT = {d: steps[0] for d, steps in _STEP.items()}  # one third of the root d


def string_step(point, direction, sign=1):
    """The next center on the string through `point` in direction sign*d."""
    for dx, dy in _STEP[direction]:
        cand = (point[0] + sign * dx, point[1] + sign * dy)
        if is_center(cand):
            return cand
    raise AssertionError("no center step from %r" % (point,))


def contains(h, point):
    """Whether the scaled point lies in hull h: each of its three slab
    values within the hull's bounds."""
    return all(lo <= trans(point, d) <= hi for d, (lo, hi) in zip(POSITIVE_ROOTS, h.bounds))


def walk_chord(h, point, d):
    """Centers of hull h on the d-string through point, point left out:
    outward in the +d direction, then in the -d direction."""
    out = []
    for sign in (1, -1):
        cur = string_step(point, d, sign)
        while contains(h, cur):
            out.append(cur)
            cur = string_step(cur, d, sign)
    return out


def string_chord(h, point, d):
    """Centers of hull h on the d-string through point (a center of h),
    point left out, from chords: outward in the +d direction, then in
    the -d direction, the order of walk_chord."""
    lo, hi = chords(h, point)[POSITIVE_ROOTS.index(d)]
    return string_centers(point, d, [*range(1, hi + 1), *range(-1, lo - 1, -1)])


def reflection_partners(w, x):
    """Centers y = r(x) inside the hull of w, per positive root direction.

    A reflection r = s_{d,k} carries x to the center y on the d-string
    through x with scaled pairings summing to 6k.  With y = x + t * unit(d)
    that is 2 * pairing(x, d) + 2t = 6k, so the partners are the t of the
    hull's chord with t = -pairing(x, d) mod 3: outward on the +d side of x,
    then outward on the -d side.
    """
    cx = x.center()
    out = []
    for d, (lo, hi) in zip(POSITIVE_ROOTS, chords(hull_of(w), cx)):
        t = -pairing(cx, d) % 3
        ts = [*range(t, hi + 1, 3), *range(t - 3, lo - 1, -3)]
        out += [(d, c) for c in string_centers(cx, d, ts)]
    return out


def interval(w):
    """All x <= w, by scanning the hull's bounding box."""
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
            if is_center(c) and contains(h, c):
                out.append(element_from_center(c))
    return set(out)


def centers_in_box(vp):
    """The centers of the box (p1min, p2min, p1max, p2max), by testing every
    integer point, row by row."""
    p1min, p2min, p1max, p2max = vp
    return [
        (p1, p2)
        for p1 in range(p1min, p1max + 1)
        for p2 in range(p2min, p2max + 1)
        if is_center((p1, p2))
    ]


def lookup_holds(w):
    """One-step reflection lookup detects nrs at every x <= w, with the
    partners as elements compared by length and the nrs set closed
    downward pair by pair with leq."""
    members = interval(w)
    n = length(w)
    positive = set()
    up = {}  # x -> the r*x <= w with r*x > x (one reflection step up)
    for x in members:
        partners = [element_from_center(c) for _, c in reflection_partners(w, x)]
        if len(partners) > n:  # q(w, x) > 0
            positive.add(x)
        lx = length(x)
        up[x] = [y for y in partners if length(y) > lx]
    truly_nrs = {x for x in members if any(leq(x, y) for y in positive)}
    return all(
        (x in truly_nrs) == (x in positive or not positive.isdisjoint(up[x]))
        for x in members
    )


def maximal_nrs(w):
    """The maximal x <= w with q_brute(w, x) > 0, compared pair by pair."""
    positive = [x for x in interval(w) if q_brute(w, x) > 0]
    return {x for x in positive if not any(y != x and leq(x, y) for y in positive)}


def walk_between(p, q):
    """All centers on the segment [p, q] of a common root string, inclusive."""
    if p == q:
        return [p]
    d = string_direction(p, q)
    sign = 1 if pairing(q, d) > pairing(p, d) else -1
    out = [p]
    cur = p
    while cur != q:
        cur = string_step(cur, d, sign)
        out.append(cur)
    return out


def descents(w):
    """Indices i with w*s_i < w, by comparing lengths."""
    return {i for i in SIMPLE_INDICES if length(w * SIMPLES[i]) < length(w)}


def element_to_word(w):
    """A reduced word for w, stripping the smallest right descent at each step."""
    letters = []
    cur = w
    while cur != E:
        i = min(descents(cur))
        letters.append(i)
        cur = cur * SIMPLES[i]
    letters.reverse()
    return letters


@functools.cache
def action_matrix(w):
    """The images w(b0), w(b1), w(b2): each b_j under the letters of a
    reduced word of w, last letter first.  Cached, as a test helper only."""
    cols = list(BETA)
    for i in reversed(element_to_word(w)):
        cols = [simple_root_action(i, c) for c in cols]
    return tuple(cols)


def act(w, point):
    """Image of a scaled point under w = t(lam) * f: the finite part's matrix
    on point, then the translation by 3 * G * lam."""
    (a, b), (c, d) = _FIN_PMATS[w.fin]
    l0, l1 = w.lam
    return (
        a * point[0] + b * point[1] + 3 * (2 * l0 - l1),
        c * point[0] + d * point[1] + 3 * (2 * l1 - l0),
    )


def root_of(refl):
    """The positive real root whose reflection is refl: of the finite roots
    +-d shifted by +-level, the one root_to_reflection maps to refl."""
    (c1, c2), k = refl
    shifted = {
        tuple(c + n for c in _FINITE_TRIPLES[d])
        for d in ((c1, c2), (-c1, -c2))
        for n in (k, -k)
    }
    (r,) = [r for r in shifted if is_positive_real_root(r) and root_to_reflection(r) == refl]
    return r


def psi_set(w, x):
    """Psi(w, x) from the reflection partners of x: the level of the
    reflection carrying x to a partner y on its d-string is the sum of the
    two scaled pairings over 6."""
    require_below(x, w)
    out = set()
    cx = x.center()
    for d, y in reflection_partners(w, x):
        level, rem = divmod(pairing(cx, d) + pairing(y, d), 6)
        assert rem == 0
        out.add(root_of(Reflection(d, level)))
    return out


def multiplicity_table(word):
    """The multiplicity table of a reduced word, two branches per partial
    product: z keeps its value over z(b_i) and z * s_i gets the negative,
    each added into the new table on its own; the word's parity sign is
    applied to the whole table at the end."""
    states = {E: RationalNF.integer(1)}
    for i in word:
        new = {}
        for z, val in states.items():
            branch = val.divided_by_form(action_matrix(z)[i])
            for target, term in ((z, branch), (z * SIMPLES[i], -branch)):
                prev = new.get(target)
                new[target] = term if prev is None else prev + term
        states = new
    if len(word) % 2:
        states = {x: -v for x, v in states.items()}
    return states

"""Exact arithmetic for the affine Weyl group of type A2~ acting on the plane.

Elements are stored in the canonical form w = t(lam) * f, where lam is a
vector in the coroot lattice (integer coordinates in the basis a1v, a2v)
and f is one of the six elements of the finite Weyl group.  The group is
simultaneously a group of affine isometries of the plane; we identify w
with the alcove w.A0 and with the alcove center w(q), where q is the
center of the fundamental alcove A0.

All plane geometry is done on "scaled coordinates": a point v is stored as
the integer pair (3*(v,a1), 3*(v,a2)).  Alcove centers have both scaled
coordinates nonzero mod 3 and congruent to each other mod 3 (1 for an Up
alcove, 2 for a Down alcove), so every geometric predicate in this module
is exact integer arithmetic.

Descents and reduced words come from a wall table.  Right multiplication
by s_i moves the center by a step that depends only on the finite part,
and crosses a wall on a line (a, v) = k for one positive root a.  The
18-entry _FIN_WALL holds that root and step per (finite part, i), and i is
a right descent of w when the wall separates w's alcove from A0: one
pairing of w's center with a.  element_to_word walks (center, finite part)
down to Q0 this way, with no group products and no length lookups.
format_word and format_words read one process-wide memo from center to
word: a miss walks down to the first center the memo holds, Q0 at the
latest, and a word is its child's word plus the descent letter.
"""

from __future__ import annotations

from typing import NamedTuple

from .memos import memo

# ---------------------------------------------------------------------------
# Roots.
#
# The three positive roots a1, a2, at = a1 + a2 are stored as coefficient
# pairs over the simple roots.  All roots have squared length 2, so roots and
# coroots are identified.

A1 = (1, 0)
A2 = (0, 1)
AT = (1, 1)
POSITIVE_ROOTS = (A1, A2, AT)

SIMPLE_INDICES = (0, 1, 2)


def root_negate(a):
    return (-a[0], -a[1])


def pairing(point, root):
    """Scaled pairing 3*(v, a) of a scaled point with a root."""
    return root[0] * point[0] + root[1] * point[1]


class InvalidWordError(ValueError):
    """A word contains a letter outside {0, 1, 2}."""


class SpiralInputError(ValueError):
    """A spiral element was passed to an operation defined off the strips."""


class IdentityTypeError(ValueError):
    """The identity has no type (ascent count 3)."""


# ---------------------------------------------------------------------------
# The finite Weyl group W_f of type A2 (order 6), tabulated once.
#
# For each element we keep:
#   mat   - matrix on root coefficients (columns are images of a1, a2),
#   pmat  - induced matrix on scaled pairing coordinates, (mat^-1)^T,
#   name  - reduced word over {1, 2} ("e" for the identity).

def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _mat_vec(a, v):
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


def _mat_inv_transpose(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det in (1, -1)
    inv = ((m[1][1] * det, -m[0][1] * det), (-m[1][0] * det, m[0][0] * det))
    return ((inv[0][0], inv[1][0]), (inv[0][1], inv[1][1]))


def _build_finite_group():
    ident = ((1, 0), (0, 1))
    s1 = ((-1, 1), (0, 1))
    s2 = ((1, 0), (1, -1))
    mats = [ident]
    names = ["e"]
    frontier = [(ident, "")]
    while frontier:
        new = []
        for m, word in frontier:
            for gen, letter in ((s1, "1"), (s2, "2")):
                prod = _mat_mul(m, gen)
                if prod not in mats:
                    mats.append(prod)
                    names.append("s" + word + letter)
                    new.append((prod, word + letter))
        frontier = new
    assert len(mats) == 6
    index = {m: i for i, m in enumerate(mats)}
    mul = tuple(
        tuple(index[_mat_mul(a, b)] for b in mats) for a in mats
    )
    inv = tuple(
        next(j for j in range(6) if mul[i][j] == 0) for i in range(6)
    )
    pmats = tuple(_mat_inv_transpose(m) for m in mats)
    return tuple(mats), pmats, tuple(names), mul, inv, index


_FIN_MATS, _FIN_PMATS, _FIN_NAMES, _FIN_MUL, _FIN_INV, _FIN_INDEX = _build_finite_group()

_FIN_E = 0
_FIN_S1 = _FIN_INDEX[((-1, 1), (0, 1))]
_FIN_S2 = _FIN_INDEX[((1, 0), (1, -1))]
_FIN_SAT = _FIN_INDEX[((0, -1), (-1, 0))]  # reflection in a1 + a2

_FIN_OF_ROOT = {A1: _FIN_S1, A2: _FIN_S2, AT: _FIN_SAT}

# Center of the fundamental alcove in scaled coordinates, and its image
# under each finite element.
Q0 = (1, 1)
_FIN_Q0 = tuple(_mat_vec(pm, Q0) for pm in _FIN_PMATS)

# The slab values x + 2y, 2x + y and x - y of _FIN_Q0 (bruhat.trans in
# POSITIVE_ROOTS order).  Those of the center of t(l0, l1) * f are
# _FIN_SLABS[f] plus 9 * l1, 9 * l0 and 9 * (l0 - l1).
_FIN_SLABS = tuple((x + 2 * y, 2 * x + y, x - y) for x, y in _FIN_Q0)

# Each finite part's matrix as a flat (m00, m01, m10, m11).
_FIN_FLAT = tuple((a, b, c, d) for (a, b), (c, d) in _FIN_MATS)

_new = tuple.__new__


class AffineElement(NamedTuple):
    """Element w = t(lam) * f of the affine Weyl group.

    The products below build their result with _new, one tuple.__new__
    call, rather than through NamedTuple's Python-level __new__.
    """

    lam: tuple
    fin: int

    def __mul__(self, other):
        (l0, l1), f = self
        (k0, k1), g = other
        m00, m01, m10, m11 = _FIN_FLAT[f]
        return _new(AffineElement, (
            (l0 + m00 * k0 + m01 * k1, l1 + m10 * k0 + m11 * k1), _FIN_MUL[f][g]
        ))

    def inverse(self):
        (l0, l1), f = self
        fi = _FIN_INV[f]
        m00, m01, m10, m11 = _FIN_FLAT[fi]
        return _new(AffineElement, ((-m00 * l0 - m01 * l1, -m10 * l0 - m11 * l1), fi))

    def center(self):
        """The image of Q0 under w, with the finite part read from _FIN_Q0."""
        bx, by = _FIN_Q0[self.fin]
        l0, l1 = self.lam
        return (bx + 6 * l0 - 3 * l1, by + 6 * l1 - 3 * l0)

    def __str__(self):
        return "(%d, %d; %s)" % (self.lam[0], self.lam[1], _FIN_NAMES[self.fin])


E = AffineElement((0, 0), _FIN_E)

S1 = AffineElement((0, 0), _FIN_S1)
S2 = AffineElement((0, 0), _FIN_S2)
S0 = AffineElement((1, 1), _FIN_SAT)  # s0 = reflection across H_{at,1}

SIMPLES = (S0, S1, S2)


def translation(root):
    """The translation t(a) by a root vector, as a group element."""
    return AffineElement(root, _FIN_E)


class Reflection(NamedTuple):
    """Affine reflection s_{a,k} across the line (a, v) = k, with a positive."""

    root: tuple
    level: int

    def element(self):
        fin = _FIN_OF_ROOT[self.root]
        return AffineElement(
            (self.level * self.root[0], self.level * self.root[1]), fin
        )


# ---------------------------------------------------------------------------
# Centers and the center <-> element bijection.

def is_center(point):
    r = point[0] % 3
    return r != 0 and point[1] % 3 == r


def orientation(point):
    """'up' or 'down' for an alcove center."""
    r = point[0] % 3
    assert is_center(point), point
    return "up" if r == 1 else "down"


_ELEMENTS = memo("alcove.element_from_center")


def element_from_center(point):
    """The unique w with w(q) equal to the given center."""
    try:
        return _ELEMENTS[point]
    except KeyError:
        pass
    if not is_center(point):
        raise ValueError("not an alcove center: %r" % (point,))
    for fin, base in enumerate(_FIN_Q0):
        dx, dy = point[0] - base[0], point[1] - base[1]
        # invert 3*G: lam = (2dx + dy, dx + 2dy)/9
        if (2 * dx + dy) % 9 == 0 and (dx + 2 * dy) % 9 == 0:
            w = _new(AffineElement, (((2 * dx + dy) // 9, (dx + 2 * dy) // 9), fin))
            if w.center() == point:
                return _ELEMENTS.setdefault(point, w)
    raise AssertionError("no element for center %r" % (point,))


# ---------------------------------------------------------------------------
# Length, descents, words.

def _strictly_between_multiples(a, b):
    """Number of multiples of 3 strictly between a and b (3 divides neither)."""
    if a > b:
        a, b = b, a
    return b // 3 - a // 3


_LENGTHS = memo("alcove.length")


def length(w):
    try:
        return _LENGTHS[w]
    except KeyError:
        pass
    c = w.center()
    return _LENGTHS.setdefault(w, sum(
        _strictly_between_multiples(pairing(Q0, a), pairing(c, a))
        for a in POSITIVE_ROOTS
    ))


def _build_walls():
    """_FIN_WALL[fin][i] = (root, down, step) for w with finite part fin.

    w*s_i has center w.center() + step, the image of s_i.center() - Q0
    under fin.  The step moves the scaled pairing with root by -2 (down)
    or +2 and with the other positive roots by 1 or -1, so the wall it
    crosses lies on a line (root, v) = k.
    """
    table = []
    for pm in _FIN_PMATS:
        row = []
        for s in SIMPLES:
            sx, sy = s.center()
            step = _mat_vec(pm, (sx - Q0[0], sy - Q0[1]))
            (root,) = [a for a in POSITIVE_ROOTS if abs(pairing(step, a)) == 2]
            row.append((root, pairing(step, root) < 0, step))
        table.append(tuple(row))
    return tuple(table)


_FIN_WALL = _build_walls()

# _RIGHT_STEP[f][i] = (dl0, dl1, g): w * s_i = t(l0 + dl0, l1 + dl1) * g for
# every w = t(l0, l1) * f, since f * s_i = t(dl0, dl1) * g.
_RIGHT_STEP = tuple(
    tuple((*zs.lam, zs.fin) for zs in (AffineElement((0, 0), f) * s for s in SIMPLES))
    for f in range(6)
)


def descents(w):
    """Indices i with w*s_i < w; the left descents of w are those of
    w.inverse().

    i is a descent when the wall s_i names separates w's alcove from A0.
    With p the scaled pairing of w's center with the wall's root, the wall
    is at 3k = p - 1 (down) or p + 1, and Q0's pairing is 1 or 2: it lies
    on the far side exactly when p > 3 (down) or p < 0.
    """
    c = w.center()
    return {
        i
        for i, (root, down, _) in enumerate(_FIN_WALL[w.fin])
        if (pairing(c, root) > 3 if down else pairing(c, root) < 0)
    }


def ascents(w):
    return set(SIMPLE_INDICES) - descents(w)


def descent_group(w):
    """The subgroup R(w) generated by the right descent reflections."""
    gens = [SIMPLES[i] for i in descents(w)]
    group = {E}
    frontier = [E]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in group:
                    group.add(h)
                    new.append(h)
        frontier = new
    return group


def word_to_element(word):
    w = E
    for i in word:
        if i not in SIMPLE_INDICES:
            raise InvalidWordError("invalid letter %r" % (i,))
        w = w * SIMPLES[i]
    return w


def _descent_walk(c, fin, stops):
    """Strip the smallest right descent from the element with center c and
    finite part fin until the center is in stops, which holds Q0:
    (centers left, letters stripped, center reached).

    The walk carries only (center, finite part): each step reads the
    smallest descent off _FIN_WALL, adds its step to the center and moves
    the finite part by _FIN_MUL.
    """
    centers, letters = [], []
    x, y = c
    while c not in stops:
        for i, ((a, b), down, step) in enumerate(_FIN_WALL[fin]):
            p = a * x + b * y  # pairing((x, y), root), inlined
            if p > 3 if down else p < 0:
                break
        else:
            raise AssertionError("no right descent at center %r" % (c,))
        centers.append(c)
        letters.append(i)
        x, y = x + step[0], y + step[1]
        c = (x, y)
        fin = _FIN_MUL[fin][SIMPLES[i].fin]
    return centers, letters, c


_Q0_ONLY = frozenset([Q0])


def element_to_word(w):
    """A reduced word for w, stripping the smallest right descent at each step."""
    letters = _descent_walk(w.center(), w.fin, _Q0_ONLY)[1]
    letters.reverse()
    return letters


def parse_word(text):
    """Parse a word string of digits over {0,1,2}; empty string is the identity."""
    word = []
    for ch in text:
        if ch not in "012":
            raise InvalidWordError("invalid word character %r" % ch)
        word.append(int(ch))
    return word_to_element(word)


# The word of every center formatted or walked past so far, in this
# process.  Each entry is element_to_word's word, so a write stores what
# any other write of the same center would.  A miss stores Q0's empty word
# first, so clearing the dict is a full reset.
_WORDS = memo("alcove.format_word")


def format_word(w):
    """The string of element_to_word(w), read from the process-wide word
    memo: one center read and one lookup once w's center is in the memo.
    A miss walks the smallest right descents down to the first center the
    memo holds and stores the word of every center it passed: a word is
    its child's word plus the descent letter."""
    c = w.center()
    word = _WORDS.get(c)
    if word is None:
        _WORDS.setdefault(Q0, "")
        centers, letters, c = _descent_walk(c, w.fin, _WORDS)
        word = _WORDS[c]
        for c, i in zip(reversed(centers), reversed(letters)):
            word += "012"[i]
            _WORDS[c] = word
    return word


def format_words(elements):
    """{x: format_word(x)} for every x in elements, through the same memo.
    Any set works; a down-closed one costs at most one walk step per
    element not yet in the memo."""
    return {w: format_word(w) for w in elements}


def display_word(w):
    """format_word for messages, with "e" for the identity."""
    return format_word(w) or "e"


def type_of(w):
    """Number of right ascents: 1 or 2 for w != e."""
    if w == E:
        raise IdentityTypeError("the identity has no type")
    t = len(ascents(w))
    assert t in (1, 2)
    return t


# ---------------------------------------------------------------------------
# Strips, chambers and regions.
#
# The fundamental strip in direction a is 0 <= (a, v) <= 1; a center lies in
# it iff its scaled pairing is 1 or 2.  Chambers are the six components of
# the complement of the three fundamental strips, numbered I..VI
# counterclockwise from the first quadrant.  I, III, V are odd; II, IV, VI
# are even.

ROMAN = {1: "I", 2: "II", 3: "III", 4: "IV", 5: "V", 6: "VI"}

# sign pattern of (p1 > 3, p2 > 3, pt > 3) -> chamber number
_CHAMBER_OF_SIGNS = {
    (True, True, True): 1,
    (False, True, True): 2,
    (False, True, False): 3,
    (False, False, False): 4,
    (True, False, False): 5,
    (True, False, True): 6,
}

_CHAMBER_PARITY = {1: "odd", 2: "even", 3: "odd", 4: "even", 5: "odd", 6: "even"}

# Chamber axis root (the root pointing into the chamber).
_CHAMBER_ROOT = {1: AT, 2: A2, 3: (-1, 0), 4: (-1, -1), 5: (0, -1), 6: A1}

# The hexagon's hyperplanes per chamber: wall counterclockwise from the chamber interior,
# wall clockwise, and the third hyperplane H_{g,k} nearest the chamber.
_CHAMBER_WALLS = {
    1: ((A1, 1), (A2, 1), (AT, 1)),
    2: ((AT, 1), (A1, 0), (A2, 1)),
    3: ((A2, 1), (AT, 0), (A1, 0)),
    4: ((A1, 0), (A2, 0), (AT, 0)),
    5: ((AT, 0), (A1, 1), (A2, 0)),
    6: ((A2, 0), (AT, 1), (A1, 1)),
}

_HALF_STRIP_PATTERNS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))

# The two half-strip rays bounding each chamber, by letter pattern.
_CHAMBER_BOUNDARY_PATTERNS = {
    1: ((0, 1), (0, 2)),
    2: ((0, 1), (1, 0)),
    3: ((1, 0), (1, 2)),
    4: ((1, 2), (2, 1)),
    5: ((2, 0), (2, 1)),
    6: ((0, 2), (2, 0)),
}


class Region(NamedTuple):
    kind: str  # "chamber" | "strip" | "identity"
    id: int
    parity: str

    def __str__(self):
        if self.kind == "chamber":
            return "chamber %s (%s)" % (ROMAN[self.id], self.parity)
        if self.kind == "strip":
            i, j = _HALF_STRIP_PATTERNS[self.id - 1]
            return "half-strip %d (pattern %d%d...)" % (self.id, i, j)
        return "fundamental alcove"


def strip_directions(point):
    """Positive roots a with the center inside the fundamental a-strip."""
    return [a for a in POSITIVE_ROOTS if pairing(point, a) in (1, 2)]


def is_spiral(w):
    return bool(strip_directions(w.center()))


def half_strip_pattern(w):
    """First two letters of the unique reduced word of a spiral element.

    For length 1 the continuation is ambiguous; the smaller second letter is
    chosen.  Undefined (error) for the identity and for non-spiral elements.
    """
    if w == E or not is_spiral(w):
        raise SpiralInputError("not a non-identity spiral element: %s" % display_word(w))
    word = element_to_word(w)
    i = word[0]
    if len(word) >= 2:
        return (i, word[1])
    return (i, min(j for j in SIMPLE_INDICES if j != i))


def chamber_number(point):
    signs = tuple(pairing(point, a) > 3 for a in POSITIVE_ROOTS)
    return _CHAMBER_OF_SIGNS[signs]


def classify(w):
    """The region (chamber, half-strip, or fundamental alcove) of w."""
    if w == E:
        return Region("identity", 0, "")
    c = w.center()
    if strip_directions(c):
        pat = half_strip_pattern(w)
        return Region("strip", _HALF_STRIP_PATTERNS.index(pat) + 1, "")
    n = chamber_number(c)
    return Region("chamber", n, _CHAMBER_PARITY[n])


def chamber_of(w):
    """Chamber number of a non-spiral element."""
    if is_spiral(w):
        raise SpiralInputError("spiral element has no chamber: %s" % display_word(w))
    return chamber_number(w.center())


def chamber_parity(w):
    return _CHAMBER_PARITY[chamber_of(w)]


def chamber_root(chamber):
    """The unique root a with t(a) mapping the chamber into itself."""
    return _CHAMBER_ROOT[chamber]


def chamber_walls(chamber):
    """((alpha, i), (beta, j), (gamma, k)) for the given chamber."""
    return _CHAMBER_WALLS[chamber]


def translate_into_chamber(w):
    """t(a)*w for the root a pointing into the chamber of w; length grows by 4."""
    a = chamber_root(chamber_of(w))
    return translation(a) * w


def translate_out_of_chamber(w):
    """t(-a)*w, the inverse of translate_into_chamber."""
    a = chamber_root(chamber_of(w))
    return translation(root_negate(a)) * w


def is_twisted_spiral(w):
    """True when w = z*s with z an even-length spiral and l(w) = l(z) + 1."""
    if w == E or is_spiral(w):
        return False
    n = length(w)
    for i in descents(w):
        z = w * SIMPLES[i]
        if is_spiral(z) and z != E and length(z) % 2 == 0:
            assert length(z) == n - 1
            return True
    return False


# ---------------------------------------------------------------------------
# Spiral elements and spiral factorizations.

def spiral_element(pattern, n):
    """The length-n element of the half-strip with the given letter pattern."""
    i, j = pattern
    k = 3 - i - j
    cycle = (i, j, k)
    return word_to_element([cycle[m % 3] for m in range(n)])


def word_deletions(w, deleted):
    """{del(P) for P in deleted}: with a_0 ... a_{n-1} = element_to_word(w),
    del(P) is the product of the letters at the positions not in P.  A
    spiral element has one reduced word, so for it del(P) names one
    subword of that word."""
    word = element_to_word(w)
    return {word_to_element([a for k, a in enumerate(word) if k not in p]) for p in deleted}


def spiral_factorizations(w):
    """The two factorizations w = u*v with u, v spiral and lengths adding.

    The strip of u is one of the two half-strips bounding the chamber of w,
    and u is as long as possible there, so that u times the first letter of
    v leaves the strip.  Returned sorted by the half-strip pattern of u.
    """
    if is_spiral(w):
        raise SpiralInputError("spiral element: %s" % display_word(w))
    n = length(w)
    results = []
    for i, j in _CHAMBER_BOUNDARY_PATTERNS[chamber_of(w)]:
        cycle = (SIMPLES[i], SIMPLES[j], SIMPLES[3 - i - j])
        u, best = E, None
        for m in range(1, n):
            u = u * cycle[(m - 1) % 3]  # spiral_element((i, j), m)
            v = u.inverse() * w
            if length(u) + length(v) != n or length(u) != m:
                break
            best = (u, v)
        assert best is not None and is_spiral(best[1]), (
            "no spiral factorization of %s along %r" % (w, (i, j))
        )
        results.append(best)
    return results

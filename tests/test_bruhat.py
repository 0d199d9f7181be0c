"""Hulls, the subexpression oracle, intervals, shells, special segments."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_a2.alcove import (
    E,
    POSITIVE_ROOTS,
    S1,
    S2,
    SIMPLES,
    SpiralInputError,
    chamber_parity,
    format_word,
    is_center,
    is_spiral,
    length,
    pairing,
    parse_word,
    spiral_element,
    translate_into_chamber,
    type_of,
    word_to_element,
)
from schubert_a2.bruhat import (
    centers_between,
    chords,
    degenerate_hull,
    diagonal_centers,
    diagonal_direction,
    hexagon,
    hexagon_to_dict,
    hull_of,
    interval,
    leq,
    leq_oracle,
    line_meet,
    oracle_interval,
    shell_index,
    special_segments,
    string_direction,
    trans,
    triangle_test,
)
from schubert_a2.loci import elements_of_length_at_most
import walk
from walk import UNIT, string_chord, string_step, walk_between, walk_chord

ELEMENTS = sorted(elements_of_length_at_most(10), key=lambda w: (length(w), format_word(w)))


def test_leq_trivia():
    w = parse_word("0121")
    assert leq(E, w)
    assert leq(w, w)
    assert not leq(parse_word("01210"), w)  # longer element never below


def test_oracle_examples():
    assert leq_oracle(S2, S1 * S2)
    assert not leq_oracle(S1 * S2 * S1, S1 * S2)


def test_interval_trivia():
    assert interval(E) == {E}
    assert interval(S1) == {E, S1}


def test_oracle_equivalence_to_length_10():
    for w in ELEMENTS:
        assert interval(w) == oracle_interval(w), format_word(w)


def test_leq_is_oracle_membership_to_length_12():
    """leq(x, w) is membership in the subexpression oracle's interval for
    every owner with l(w) <= 12 and every x with l(x) <= 13, so elements
    just outside each hull are asked too."""
    candidates = elements_of_length_at_most(13)
    assert (len(ELEMENTS_12), len(candidates)) == (235, 274)
    for w in ELEMENTS_12:
        below = oracle_interval(w)
        for x in candidates:
            assert leq(x, w) == (x in below), (format_word(w), format_word(x))


def test_membership_is_the_center_test():
    """Hull.contains(x) on the lattice boxes equals the center test against
    the slab bounds, for every owner with l <= 12 and every x with l <= 13."""
    candidates = elements_of_length_at_most(13)
    for w in ELEMENTS_12:
        h = hull_of(w)
        for x in candidates:
            assert h.contains(x) == walk.contains(h, x.center()), (format_word(w), format_word(x))


def test_oracle_count_is_lattice_count():
    random.seed(3)
    sample = [w for w in ELEMENTS if not is_spiral(w)]
    for w in random.sample(sample, 20):
        assert len(oracle_interval(w)) == len(interval(w))


def test_hexagon_vertices_are_hull_extremes():
    """The hexagon vertex set is the extreme-point set of the interval."""

    def hull_extremes(points):
        # monotone chain on an affine image of the plane (hulls are affine)
        pts = sorted((2 * p[0] + p[1], p[1]) for p in points)

        def half(ps):
            out = []
            for p in ps:
                while len(out) >= 2 and _cross(out[-2], out[-1], p) >= 0:
                    out.pop()
                out.append(p)
            return out

        def _cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        lower = half(pts)
        upper = half(list(reversed(pts)))
        ring = lower[:-1] + upper[:-1]
        return {((x - y) // 2, y) for x, y in ring}

    for text in ("0121", "01210", "121", "12102", "0121012"):
        w = parse_word(text)
        hx = hexagon(w)
        extremes = hull_extremes([x.center() for x in oracle_interval(w)])
        assert {v.center() for v in hx.vertices} == extremes, text


def test_hexagon_formulas():
    for w in [x for x in ELEMENTS if not is_spiral(x)][:60]:
        hx = hexagon(w)
        ra, rb, rg = (r.element() for r in hx.hyperplanes)
        assert hx.vertices[1] == ra * w
        assert hx.vertices[5] == rb * w
        assert hx.vertices[3] == rg * w
        assert hx.vertices[2] == rg * hx.vertices[1]
        assert hx.vertices[4] == rg * hx.vertices[5]
        # w0 w3 is parallel to the third direction (its transverse is equal)
        g = hx.hyperplanes[2].root
        assert trans(w.center(), g) == trans(hx.vertices[3].center(), g)


def test_type1_odd_vertex_lengths():
    for w in ELEMENTS:
        if is_spiral(w) or length(w) < 4:
            continue
        if chamber_parity(w) == "odd" and type_of(w) == 1:
            hx = hexagon(w)
            assert length(hx.vertices[1]) == length(w) - 1
            assert length(hx.vertices[5]) == length(w) - 1


def test_spiral_hexagon_raises():
    with pytest.raises(SpiralInputError):
        hexagon(parse_word("012"))


def test_degenerate_hull_small_chain():
    assert {x.center() for x in interval(S1)} == {E.center(), S1.center()}
    h = degenerate_hull(S1)
    assert len(h.vertices) == 2


def test_spiral_hull_matches_oracle():
    for w in ELEMENTS:
        if is_spiral(w):
            assert interval(w) == oracle_interval(w), format_word(w)


def test_even_alcove_counts_on_edges():
    for w in ELEMENTS:
        if is_spiral(w) or length(w) < 4:
            continue
        hx = hexagon(w)
        for i in range(6):
            assert len(hx.edge(i)) % 2 == 0


def test_shells():
    # the owner is a vertex: shell 0
    for w in [x for x in ELEMENTS if not is_spiral(x)][:40]:
        assert shell_index(hull_of(w), w) == 0
    # shells partition the interval and are nested
    random.seed(9)
    for w in random.sample([x for x in ELEMENTS if not is_spiral(x) and length(x) >= 6], 15):
        h = hull_of(w)
        members = interval(w)
        ks = {x: shell_index(h, x) for x in members}
        assert min(ks.values()) == 0
        assert set(ks.values()) == set(range(max(ks.values()) + 1))
    # outside the hull is an error
    with pytest.raises(ValueError):
        shell_index(hull_of(S1), parse_word("0121"))


def test_shell_index_is_the_least_slab_distance():
    """shell_index is the least of min(trans - lo, hi - trans) // 3 over the
    three directions, for every x <= w with l <= 12; a center off the hull is
    a ValueError."""
    for w in ELEMENTS_12:
        h = hull_of(w)
        for x in interval(w):
            c = x.center()
            want = min(
                min(trans(c, d) - lo, hi - trans(c, d)) // 3
                for d, (lo, hi) in zip(POSITIVE_ROOTS, h.bounds)
            )
            assert shell_index(h, x) == want, (format_word(w), format_word(x))
    random.seed(5)
    for w in random.sample(ELEMENTS_12, 30):
        h = hull_of(w)
        for x in ELEMENTS_12:
            if not leq(x, w):
                with pytest.raises(ValueError):
                    shell_index(h, x)


def _edge_scan_direction(hx, i):
    """The one direction along neither edge at vertex i, from the vertices'
    centers; an edge between equal vertices has no direction."""
    used = set()
    for a, b in ((i, i + 1), (i - 1, i)):
        p, q = hx.vertices[a % 6].center(), hx.vertices[b % 6].center()
        if p != q:
            used.add(string_direction(p, q))
    free = [d for d in POSITIVE_ROOTS if d not in used]
    assert len(free) == 1, "degenerate hexagon at vertex %d" % i
    return free[0]


def test_diagonal_direction_matches_the_edge_scan():
    checked = 0
    for w in elements_of_length_at_most(16):
        if is_spiral(w):
            continue
        hx = hexagon(w)
        for i in range(6):
            assert diagonal_direction(hx, i) == _edge_scan_direction(hx, i), (format_word(w), i)
            checked += 1
    assert checked == 1890


def test_translated_hexagon_shells():
    """For w' = t(a)w, the 3-shell of the big hexagon is the boundary of the
    small one."""
    for w in [x for x in ELEMENTS if not is_spiral(x) and length(x) <= 6]:
        wp = translate_into_chamber(w)
        inner = hull_of(w)
        outer = hull_of(wp)
        assert tuple((lo + 9, hi - 9) for lo, hi in outer.bounds) == inner.bounds


def diagonals_and_special(hexagon_):
    """Per-vertex diagonals plus special edges and segments.

    Returns (diagonals, edges, segments): diagonals maps each vertex index
    to the centers of its interior diagonal; edges is the list of special
    edge index pairs (empty in even chambers); segments the matching center
    lists.
    """
    diagonals = {i: diagonal_centers(hexagon_, i) for i in range(6)}
    edges = [(1, 2), (4, 5)] if hexagon_.parity == "odd" else []
    return diagonals, edges, special_segments(hexagon_)


def test_diagonals_and_special_segments():
    for w in ELEMENTS:
        if is_spiral(w) or length(w) < 4:
            continue
        hx = hexagon(w)
        diagonals, edges, segments = diagonals_and_special(hx)
        if hx.parity == "even":
            assert edges == []
            # every diagonal joins opposite vertices
            for i in range(3):
                di = {tuple(c) for c in diagonals[i]}
                assert hx.vertices[(i + 3) % 6].center() in di
        else:
            assert edges == [(1, 2), (4, 5)]
            for (i, j), seg in zip(edges, segments):
                alcoves = hx.edge(i)
                if len(alcoves) < 6:
                    assert seg == []
                else:
                    # endpoints sit two alcoves in from the edge ends
                    assert seg[0] == alcoves[2] and seg[-1] == alcoves[-3]
                    # and on the diagonals from the opposite edge's vertices
                    oi, oj = (4, 5) if (i, j) == (1, 2) else (1, 2)
                    hits = (set(map(tuple, diagonals[oi])) | set(map(tuple, diagonals[oj]))) & set(
                        map(tuple, alcoves)
                    )
                    assert hits == {tuple(seg[0]), tuple(seg[-1])}


def test_odd_symmetry_preserves_interval():
    for w in [x for x in ELEMENTS if not is_spiral(x)][:80]:
        hx = hexagon(w)
        rg = hx.hyperplanes[2].element()
        members = interval(w)
        assert {rg * x for x in members} == members


def test_endpoint_property():
    """Three centers on a root string with y between x and z: y <= x or y <= z."""
    random.seed(21)
    for _ in range(120):
        x = ELEMENTS[random.randrange(len(ELEMENTS))]
        d = POSITIVE_ROOTS[random.randrange(3)]
        c = x.center()
        chain = [c]
        for _step in range(4):
            chain.append(string_step(chain[-1], d))
        from schubert_a2.alcove import element_from_center

        a, b = sorted(random.sample(range(5), 2))
        mids = chain[a + 1:b] if b - a >= 2 else []
        xe = element_from_center(chain[a])
        ze = element_from_center(chain[b])
        for m in mids:
            ye = element_from_center(m)
            assert leq_oracle(ye, xe) or leq_oracle(ye, ze)


def test_transitivity_and_antisymmetry():
    # antisymmetry: distinct comparable elements are never mutually below
    for w in ELEMENTS:
        for x in interval(w):
            if x != w:
                assert not leq(w, x)
    # transitivity, exhaustively via nested intervals to length 10
    cache = {}

    def cached_interval(w):
        if w not in cache:
            cache[w] = interval(w)
        return cache[w]

    for w in ELEMENTS:
        iw = cached_interval(w)
        for x in iw:
            assert cached_interval(x) <= iw


words = st.lists(st.integers(0, 2), min_size=0, max_size=9)


@given(words, words)
@settings(max_examples=150, deadline=None)
def test_subword_gives_leq(wa, extra):
    """Dropping letters from a word always yields a smaller element."""
    w = word_to_element(wa + extra)
    x = word_to_element(wa)
    big = word_to_element(wa) * word_to_element(extra)
    assert leq_oracle(x, big) == leq(x, big)
    assert leq(x, w) == leq_oracle(x, w)


ELEMENTS_12 = sorted(elements_of_length_at_most(12), key=lambda w: (length(w), format_word(w)))


def test_string_chord_matches_the_walk():
    """The t-interval chord equals the stepping walk, in the same order, for
    every owner with l <= 12, every x <= w and every direction."""
    for w in ELEMENTS_12:
        h = hull_of(w)
        for x in interval(w):
            c = x.center()
            for d in POSITIVE_ROOTS:
                assert string_chord(h, c, d) == walk_chord(h, c, d), (format_word(w), c, d)


def test_chords_are_the_hull_intervals():
    """chords gives, per direction in POSITIVE_ROOTS order, exactly the t
    with point + t * unit(d) in the hull, for centers on and off the hull
    and strings that miss it."""
    random.seed(11)
    grid = [(p1, p2) for p1 in range(-16, 17) for p2 in range(-16, 17) if is_center((p1, p2))]
    for w in random.sample(ELEMENTS_12, 12):
        h = hull_of(w)
        for p in grid:
            spans = chords(h, p)
            assert len(spans) == 3
            for d, (lo, hi) in zip(POSITIVE_ROOTS, spans):
                ux, uy = UNIT[d]
                inside = [t for t in range(-50, 51) if walk.contains(h, (p[0] + t * ux, p[1] + t * uy))]
                assert list(range(lo, hi + 1)) == inside, (format_word(w), p, d)


def test_interval_rows_match_the_box_scan():
    """The row-wise interval equals the bounding-box scan, insertion order
    included, for every owner with l <= 16."""
    for w in elements_of_length_at_most(16):
        assert list(interval(w)) == list(walk.interval(w)), format_word(w)


def test_diagonals_match_the_walk():
    for w in ELEMENTS_12:
        if is_spiral(w):
            continue
        hx = hexagon(w)
        for i in range(6):
            v = hx.vertices[i].center()
            d = diagonal_direction(hx, i)
            walked = sorted([v] + walk_chord(hx, v, d), key=lambda p: pairing(p, d))
            assert diagonal_centers(hx, i) == walked, (format_word(w), i)


def test_hull_edges_match_the_walk():
    """centers_between along every hull edge, both ways, equals the walk."""
    for w in ELEMENTS_12:
        vs = [v.center() for v in hull_of(w).vertices]
        for a, b in zip(vs, vs[1:] + vs[:1]):
            assert centers_between(a, b) == walk_between(a, b), (format_word(w), a, b)
            assert centers_between(b, a) == walk_between(b, a), (format_word(w), a, b)


def test_centers_between_requires_common_string():
    with pytest.raises(ValueError):
        centers_between((1, 1), (4, 7))


def test_hexagon_json():
    data = hexagon_to_dict(hexagon(parse_word("0121")))
    assert data["owner"] == "0121"
    assert len(data["vertices"]) == 6
    assert len(data["hyperplanes"]) == 3
    assert all(set(h) == {"root", "level"} for h in data["hyperplanes"])


# --- the line/triangle kernel, against independent exact references ------

_COEFF = {(1, 0): (1, 2), (0, 1): (2, 1), (1, 1): (1, -1)}  # trans as a linear form


def _meet_exact(d1, t1, d2, t2):
    """The point on both lines, by Cramer's rule over the rationals."""
    (a, b), (c, d) = _COEFF[d1], _COEFF[d2]
    det = Fraction(a * d - b * c)
    return ((d * t1 - b * t2) / det, (a * t2 - c * t1) / det)


def test_line_meet_is_exact():
    for d1, d2 in itertools.permutations(POSITIVE_ROOTS, 2):
        for t1 in range(-7, 8):
            for t2 in range(-7, 8):
                x, y = _meet_exact(d1, t1, d2, t2)
                assert line_meet(d1, t1, d2, t2) == (3 * x, 3 * y)


def _in_triangle_cross(corners, p):
    """Closed triangle by cross-product signs; a point triangle is itself."""
    if corners[0] == corners[1] == corners[2]:
        return p == corners[0]
    signs = set()
    for a, b in ((0, 1), (1, 2), (2, 0)):
        (ax, ay), (bx, by) = corners[a], corners[b]
        cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
        if cross:
            signs.add(cross > 0)
    return len(signs) <= 1


def test_triangle_test_matches_cross_products():
    grid = [(p1, p2) for p1 in range(-13, 14) for p2 in range(-13, 14)
            if p1 % 3 and p2 % 3 == p1 % 3]
    random.seed(5)
    cases = [[random.randrange(-12, 13) for _ in range(3)] for _ in range(16)]
    # three lines through one center: the triangle is that point
    cases += [[trans(c, d) for d in POSITIVE_ROOTS] for c in ((1, 1), (-5, 4), (7, -2))]
    hits = 0
    for ts in cases:
        for dirs in itertools.permutations(POSITIVE_ROOTS):
            lines = [(d, ts[POSITIVE_ROOTS.index(d)]) for d in dirs]
            corners = [_meet_exact(*lines[(a + 1) % 3], *lines[(a + 2) % 3])
                       for a in range(3)]
            inside = triangle_test(lines)
            for p in grid:
                expect = _in_triangle_cross(corners, p)
                assert inside(p) == expect, (lines, p)
                hits += expect
    assert hits > 0


def test_hexagon_is_the_memoized_hull():
    for w in ELEMENTS:
        if not is_spiral(w):
            assert hexagon(w) is hull_of(w)

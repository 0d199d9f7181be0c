"""Group arithmetic, lengths, regions, wall labels, spiral factorizations."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_a2.alcove import (
    E,
    POSITIVE_ROOTS,
    Q0,
    AffineElement,
    IdentityTypeError,
    Reflection,
    S0,
    S1,
    S2,
    SIMPLES,
    SpiralInputError,
    chamber_of,
    chamber_parity,
    chamber_root,
    chamber_walls,
    classify,
    descent_group,
    descents,
    element_from_center,
    element_to_word,
    format_word,
    format_words,
    is_center,
    is_spiral,
    is_twisted_spiral,
    length,
    orientation,
    pairing,
    parse_word,
    spiral_element,
    spiral_factorizations,
    translate_into_chamber,
    translation,
    type_of,
    word_to_element,
)
from schubert_a2.bruhat import interval
import walk
from walk import act, string_step

words = st.lists(st.integers(0, 2), max_size=10)


def reflect_point(point, root, level):
    """Mirror a scaled point across the line (root, v) = level."""
    p = pairing(point, root)
    d = 6 * level - 2 * p  # change in the scaled pairing with `root`
    # v' = v + ((6k - 2p)/6) * root; scaled coordinate shift is d/2 * G*root.
    g = (2 * root[0] - root[1], -root[0] + 2 * root[1])
    assert d % 2 == 0
    return (point[0] + d // 2 * g[0], point[1] + d // 2 * g[1])


class NotAdjacentError(ValueError):
    """Two alcoves do not share an edge."""


def wall_label(w, neighbor):
    """The label a with neighbor = w*s_a, for alcoves sharing an edge."""
    for i, s in enumerate(SIMPLES):
        if neighbor == w * s:
            return i
    raise NotAdjacentError("alcoves %s and %s do not share an edge" % (w, neighbor))


def all_elements(n):
    seen = {E}
    frontier = [E]
    for _ in range(n):
        new = []
        for w in frontier:
            for s in SIMPLES:
                x = w * s
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return sorted(seen, key=lambda w: (length(w), format_word(w)))


ELEMENTS_12 = all_elements(12)
ELEMENTS_16 = all_elements(16)


def test_involutions_and_identity():
    for s in SIMPLES:
        assert s * s == E
        assert length(s) == 1
    assert length(E) == 0


def test_translation_conjugation_shifts_level():
    # t(lam) s_{b,k} t(-lam) = s_{b, k + (lam, b)} with lam = a1, b = a1, k = 0
    t = translation((1, 0))
    assert t * Reflection((1, 0), 0).element() * t.inverse() == Reflection((1, 0), 2).element()


@given(words, words, words)
@settings(max_examples=300, deadline=None)
def test_associativity_via_words(wa, wb, wc):
    a, b, c = word_to_element(wa), word_to_element(wb), word_to_element(wc)
    assert (a * b) * c == a * (b * c)
    assert (a * b) * c == word_to_element(wa + wb + wc)


def test_associativity_thousand_triples():
    random.seed(41)
    for _ in range(1000):
        wa, wb, wc = (
            [random.randrange(3) for _ in range(random.randrange(9))] for _ in range(3)
        )
        a, b, c = word_to_element(wa), word_to_element(wb), word_to_element(wc)
        assert (a * b) * c == a * (b * c) == word_to_element(wa + wb + wc)


def test_act_examples():
    assert act(E, Q0) == Q0
    assert act(S0, Q0) == (2, 2)
    # hand reflection across (at, v) = 1
    assert reflect_point(Q0, (1, 1), 1) == (2, 2)
    at = (1, 1)
    assert act(translation(at), Q0) == (Q0[0] + 3, Q0[1] + 3)


@given(words, words)
@settings(max_examples=200, deadline=None)
def test_action_is_homomorphism(wa, wb):
    a, b = word_to_element(wa), word_to_element(wb)
    p = act(b, Q0)
    assert act(a * b, Q0) == act(a, p)


def test_center_is_the_image_of_q0():
    # center() reads the finite part from a table; walk.act is the matrix path
    for w in ELEMENTS_12:
        assert w.center() == act(w, Q0), format_word(w)


def test_centers_are_the_two_residue_classes():
    for w in ELEMENTS_12[:400]:
        c = w.center()
        assert is_center(c)
        assert element_from_center(c) == w
    # every valid residue pair in a window is hit by some element
    for p1 in range(-7, 8):
        for p2 in range(-7, 8):
            if is_center((p1, p2)):
                assert element_from_center((p1, p2)).center() == (p1, p2)


def test_orientation_parity():
    for w in ELEMENTS_12[:200]:
        c = w.center()
        for s in SIMPLES:
            assert orientation(act(s, c)) != orientation(c)
        assert orientation(act(translation((1, 0)), c)) == orientation(c)


def test_length_and_inverse():
    """Every word multiplies back to its element and is reduced (l <= 16);
    neither check reads the wall table."""
    for w in ELEMENTS_16:
        assert length(w) == length(w.inverse())
        word = element_to_word(w)
        assert len(word) == length(w), format_word(w)
        assert word_to_element(word) == w, format_word(w)


def test_word_length_subadditive():
    random.seed(5)
    for _ in range(200):
        word = [random.randrange(3) for _ in range(random.randrange(12))]
        assert length(word_to_element(word)) <= len(word)


def test_descents_and_left_groups():
    assert descents(E) == set()
    for w in ELEMENTS_12:
        if is_spiral(w):
            continue
        # the left descents of w are the right descents of its inverse
        left = {i for i, s in enumerate(SIMPLES) if length(s * w) < length(w)}
        assert descents(w.inverse()) == left
        lw = descent_group(w.inverse())
        if chamber_parity(w) == "even":
            assert len(descents(w.inverse())) == 2
            assert len(lw) == 6
        else:
            assert len(lw) == 2


def test_wall_table_matches_the_length_reference():
    """descents of w and of w^-1, and the reduced word, read off the wall
    table equal the reference built on length(w * s_i), for every l <= 16."""
    for w in ELEMENTS_16:
        assert descents(w) == walk.descents(w), format_word(w)
        assert descents(w.inverse()) == walk.descents(w.inverse()), format_word(w)
        assert element_to_word(w) == walk.element_to_word(w), format_word(w)


def test_word_digest():
    """format_word over every l <= 14 element, in sorted (lam, fin) order,
    is pinned by its sha256."""
    blob = "\n".join(format_word(w) for w in sorted(all_elements(14))).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "315ca13378b980e6fc5ba3b45faf0e96153d378e5d3cae5e7b3c422263736ef5"
    )


def test_format_words_equals_format_word():
    """format_words against format_word on down-closed sets (every
    interval with l <= 14, every element with l <= 12) and on sets that
    are not: one element of length 14, and all elements of length 14."""
    length_14 = [w for w in all_elements(14) if length(w) == 14]
    sets = [interval(w) for w in all_elements(14)]
    sets += [ELEMENTS_12, length_14[:1], length_14]
    for elements in sets:
        assert format_words(elements) == {x: format_word(x) for x in elements}


def test_types():
    with pytest.raises(IdentityTypeError):
        type_of(E)
    for w in ELEMENTS_12:
        if w != E:
            assert type_of(w) in (1, 2)
            assert len(descents(w)) == 3 - type_of(w)


def test_classify_examples():
    assert classify(parse_word("0120")).kind == "strip"
    assert classify(E).kind == "identity"
    # s_i s_j s_i is twisted spiral (even chamber)
    w = parse_word("121")
    assert is_twisted_spiral(w) and chamber_parity(w) == "even"
    # s_k s_i s_j s_i sits in an odd chamber
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        w = word_to_element([k, i, j, i])
        assert classify(w).kind == "chamber"
        assert chamber_parity(w) == "odd"


def test_twisted_spiral_lengths_are_odd():
    tw = [w for w in ELEMENTS_12 if is_twisted_spiral(w)]
    assert tw
    assert all(length(w) % 2 == 1 for w in tw)
    assert not any(is_spiral(w) for w in tw)


def test_chamber_roots():
    assert chamber_root(1) == (1, 1)
    assert chamber_root(2) == (0, 1)
    assert chamber_root(3) == (-1, 0)
    assert chamber_root(4) == (-1, -1)
    for w in ELEMENTS_12:
        if is_spiral(w):
            continue
        wp = translate_into_chamber(w)
        assert length(wp) == length(w) + 4
        assert chamber_of(wp) == chamber_of(w)
    with pytest.raises(SpiralInputError):
        translate_into_chamber(S1)


def test_edge_reflection_length_change():
    """Reflecting across the nearer strip edge drops the length by 1, or by 3
    exactly when the edge meets the fundamental alcove in the chamber's
    vertex."""
    corner_of_chamber = {}
    for c in range(1, 7):
        (a, i), (b, j), _ = chamber_walls(c)
        # apex = intersection of the two wall lines, in scaled coordinates
        # pairing with a is 3i, with b is 3j
        det = a[0] * b[1] - a[1] * b[0]
        p1 = (3 * i * b[1] - 3 * j * a[1]) / det
        p2 = (3 * j * a[0] - 3 * i * b[0]) / det
        corner_of_chamber[c] = (p1, p2)
    a0_corners = {(0, 0), (3, 0), (0, 3)}
    for d in POSITIVE_ROOTS:
        for k in (0, 1):
            refl = Reflection(d, k).element()
            touch = {c for c in a0_corners if pairing(c, d) == 3 * k}
            # the -3 case needs the line to meet A0 in a single corner
            vertex_touch = touch if len(touch) == 1 else set()
            for z in ELEMENTS_12:
                if is_spiral(z):
                    continue
                pz = pairing(z.center(), d)
                # nearer edge of the strip: z on the opposite side of the strip
                if not (pz > 3 if k == 1 else pz < 0):
                    continue
                c = chamber_of(z)
                drop = 3 if corner_of_chamber[c] in vertex_touch else 1
                assert length(refl * z) == length(z) - drop, (d, k, format_word(z))


def test_wall_labels():
    assert wall_label(E, S1) == 1
    assert wall_label(E, S0) == 0
    with pytest.raises(NotAdjacentError):
        wall_label(E, S1 * S2)
    # six alcoves around a shared vertex: the interior walls alternate
    # between two labels i, j; every exterior wall carries the third label,
    # i.e. the s_k neighbor of each ring alcove leaves the shared vertex.
    def corners(center):
        offs = ((-1, -1), (-1, 2), (2, -1)) if orientation(center) == "up" else (
            (1, 1), (1, -2), (-2, 1))
        return {(center[0] + a, center[1] + b) for a, b in offs}

    random.seed(11)
    for _ in range(25):
        w = ELEMENTS_12[random.randrange(len(ELEMENTS_12))]
        i, j = random.sample([0, 1, 2], 2)
        k = 3 - i - j
        ring = [w]
        for step in range(5):
            ring.append(ring[-1] * (SIMPLES[i] if step % 2 == 0 else SIMPLES[j]))
        assert ring[5] * SIMPLES[j] == w  # the ring closes after six steps
        shared = corners(ring[0].center())
        for a in ring[1:]:
            shared &= corners(a.center())
        assert len(shared) == 1  # a common vertex point
        for a, b in zip(ring, ring[1:] + [w]):
            assert wall_label(a, b) in (i, j)
        for a in ring:
            outside = a * SIMPLES[k]
            assert not (shared & corners(outside.center()))


def test_string_side_labels():
    """Alcoves on one root string carry equal labels on the same side."""
    random.seed(13)
    for d in POSITIVE_ROOTS:
        for _ in range(10):
            w = ELEMENTS_12[random.randrange(len(ELEMENTS_12))]
            c = w.center()
            c2 = string_step(string_step(c, d), d)  # same orientation, two on
            w2 = element_from_center(c2)
            # the wall crossed first when leaving the string on a fixed side
            # has the same label for both
            for side_level in (1, -1):
                lab1 = _exit_label(w, d, side_level)
                lab2 = _exit_label(w2, d, side_level)
                assert lab1 == lab2


def _exit_label(w, d, side):
    """Label of the wall of w crossed toward larger (side=1) or smaller
    pairing with the transverse direction of d."""
    from schubert_a2.bruhat import trans

    c = w.center()
    best = None
    for i in (0, 1, 2):
        nb = w * SIMPLES[i]
        delta = trans(nb.center(), d) - trans(c, d)
        if delta * side > 0:
            assert best is None
            best = i
    return best


def test_inversion_identity_spot():
    for w in ELEMENTS_12[:120]:
        n = 0
        c = w.center()
        for d in POSITIVE_ROOTS:
            lo, hi = sorted((pairing(Q0, d), pairing(c, d)))
            for k in range(lo // 3 - 1, hi // 3 + 2):
                if length(Reflection(d, k).element() * w) < length(w):
                    n += 1
        assert n == length(w)


def test_spiral_factorizations():
    for w in ELEMENTS_12:
        if is_spiral(w):
            continue
        pairs = spiral_factorizations(w)
        assert len(pairs) == 2
        for u, v in pairs:
            assert u * v == w
            assert is_spiral(u) and is_spiral(v)
            assert length(u) + length(v) == length(w)
            word = element_to_word(u) + element_to_word(v)
            assert word_to_element(word) == w and len(word) == length(w)
    with pytest.raises(SpiralInputError):
        spiral_factorizations(parse_word("012"))


def test_factorization_path_in_parallelogram():
    """Both canonical words trace paths inside the parallelogram with sides
    parallel to the strips bounding the owner's chamber: every alcove of the
    path fits between the extreme pairings of A0 and wA0 with the two wall
    roots."""

    def corner_points(center):
        offs = ((-1, -1), (-1, 2), (2, -1)) if orientation(center) == "up" else (
            (1, 1), (1, -2), (-2, 1))
        return [(center[0] + a, center[1] + b) for a, b in offs]

    random.seed(17)
    candidates = [w for w in ELEMENTS_12 if not is_spiral(w) and length(w) >= 4]
    for w in random.sample(candidates, 40):
        wall_roots = [r for r, _level in chamber_walls(chamber_of(w))[:2]]
        bounds = {}
        for d in wall_roots:
            vals = [pairing(p, d) for p in corner_points(Q0) + corner_points(w.center())]
            bounds[d] = (min(vals), max(vals))
        for u, v in spiral_factorizations(w):
            word = element_to_word(u) + element_to_word(v)
            cur = E
            for letter in word:
                cur = cur * SIMPLES[letter]
                for p in corner_points(cur.center()):
                    for d in wall_roots:
                        lo, hi = bounds[d]
                        assert lo <= pairing(p, d) <= hi, (format_word(w), format_word(cur))


def test_printing():
    w = parse_word("0121")
    assert format_word(w) == "0121"
    assert str(w) == "(1, 1; e)"
    assert str(S0) == "(1, 1; s121)"


def test_spiral_element_constructor():
    for pattern in ((0, 1), (1, 2), (2, 0)):
        for n in range(0, 10):
            w = spiral_element(pattern, n)
            assert length(w) == n
            assert n == 0 or is_spiral(w)

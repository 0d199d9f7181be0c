"""The statistic q, the nrs locus, maximal nrs points, lookup."""

import hashlib
import json
import random
import sys

import pytest

from schubert_a2.alcove import (
    AffineElement,
    E,
    POSITIVE_ROOTS,
    SIMPLES,
    SpiralInputError,
    ascents,
    chamber_parity,
    descent_group,
    element_from_center,
    descents,
    display_word,
    format_word,
    is_spiral,
    is_twisted_spiral,
    length,
    pairing,
    parse_word,
    spiral_element,
    translate_into_chamber,
    translate_out_of_chamber,
    type_of,
    word_to_element,
)
from schubert_a2 import bruhat, qstat
from schubert_a2.bruhat import (
    diagonal_centers,
    diagonal_direction,
    hexagon,
    hull_of,
    interval,
    leq,
    oracle_interval,
    require_below,
    shell_of,
    trans,
    triangle_test,
)
from schubert_a2.kumar import psi_set
from schubert_a2.loci import elements_of_length_at_most, smooth_points
from schubert_a2.memos import MEMOS
from schubert_a2.qstat import (
    NotComparableError,
    bruhat_maximal,
    down_closure,
    is_base_case,
    is_rationally_smooth,
    lookup_holds,
    maximal_nrs,
    nrs,
    nrs_codimension,
    q_brute,
    q_structured,
    q_table,
    q_value,
)
import walk
from walk import reflection_partners, walk_chord


def _by_length(w):
    return (length(w), format_word(w))


ELEMENTS = sorted(elements_of_length_at_most(9), key=_by_length)
NONSPIRAL = [w for w in ELEMENTS if not is_spiral(w)]


def test_q_at_top_is_zero():
    for w in ELEMENTS:
        assert q_brute(w, w) == 0


def test_q_requires_comparability():
    with pytest.raises(NotComparableError):
        q_brute(parse_word("01"), parse_word("21"))
    with pytest.raises(NotComparableError):
        q_structured(parse_word("0121"), parse_word("01210"))
    with pytest.raises(SpiralInputError):
        q_structured(parse_word("012"), E)


def test_rationally_smooth_class_all_zero():
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        w = word_to_element([i, j, i, k])
        for x in interval(w):
            assert q_brute(w, x) == 0


def test_structured_equals_brute_to_9():
    for w in NONSPIRAL:
        for x in interval(w):
            assert q_structured(w, x) == q_brute(w, x), (format_word(w), format_word(x))


def test_translation_move():
    for w in NONSPIRAL:
        if length(w) > 6:
            continue
        wp = translate_into_chamber(w)
        assert length(wp) == length(w) + 4
        for x in interval(w):
            assert q_brute(wp, x) == q_brute(w, x) + 2


def test_outer_shell_values():
    seen_t1_even = seen_t1_odd_special = seen_t2_odd_2 = False
    for w in NONSPIRAL:
        if length(w) < 4 or is_base_case(w):
            continue
        hx = hexagon(w)
        h = hull_of(w)
        tab = q_table(w)
        for x in tab.entries:
            k = shell_of(h, x.center())
            if k > 2:
                continue
            q = tab.q(x)
            if type_of(w) == 1 and hx.parity == "even":
                assert q == 0
                seen_t1_even = True
            elif type_of(w) == 1 and q == 1:
                seen_t1_odd_special = True
            elif type_of(w) == 2 and hx.parity == "odd" and k == 2 and q == 2:
                seen_t2_odd_2 = True
    assert seen_t1_even and seen_t1_odd_special and seen_t2_odd_2


def test_base_cases():
    for w in NONSPIRAL:
        if not is_base_case(w) or length(w) < 3:
            continue
        tab = q_table(w)
        par, t = chamber_parity(w), type_of(w)
        if par == "even" and t == 1:
            assert is_twisted_spiral(w)
            assert all(q == 0 for q, _ in tab.entries.values())
        if length(w) == 4:
            assert all(q == 0 for q, _ in tab.entries.values())
        if par == "odd" and t == 2 and length(w) == 5:
            h = hull_of(w)
            for x, (q, _) in tab.entries.items():
                assert q == (2 if shell_of(h, x.center()) >= 2 else 0)
        assert all(tag == "base-case" for _, tag in tab.entries.values())


def test_base4_blue_segments_match_the_per_segment_scan():
    """The blue segments of every base-case-4 owner (odd chamber, type 2,
    base case, l >= 7) with l <= 24, read off one pass over the interval,
    equal the reference that scans the interval once per segment."""
    owners = [
        w for w in elements_of_length_at_most(24)
        if length(w) >= 7 and not is_spiral(w) and is_base_case(w)
        and chamber_parity(w) == "odd" and type_of(w) == 2
    ]
    assert len(owners) == 54
    for w in owners:
        geom = qstat._base4_geometry(w)
        assert geom.blue == walk.base4_blue(w, geom.lines), format_word(w)
        assert all(geom.blue.values()), format_word(w)


def test_qtable_tags_and_json():
    w = translate_into_chamber(parse_word("0121"))  # a translated element
    assert not is_base_case(w)
    tab = q_table(w)
    tags = {tag for _, tag in tab.entries.values()}
    assert tags == {"outer-shell", "translation"}
    data = tab.to_dict()
    assert data["owner"] == format_word(w)
    assert all(set(e) == {"x", "q", "tag"} for e in data["entries"])
    spiral_tab = q_table(parse_word("0120"))
    assert {tag for _, tag in spiral_tab.entries.values()} == {"brute"}


def test_nrs():
    for w in ELEMENTS[:120]:
        assert not nrs(w, w)
    # twisted spirals are rationally smooth everywhere
    for w in NONSPIRAL:
        if is_twisted_spiral(w):
            assert not any(nrs(w, x) for x in interval(w))
    # for non-spiral w the pointwise test equals the existential scan
    for w in NONSPIRAL:
        if length(w) > 7:
            continue
        positive = [y for y in interval(w) if q_brute(w, y) > 0]
        for x in interval(w):
            assert nrs(w, x) == any(leq(x, y) for y in positive)
    with pytest.raises(NotComparableError):
        nrs(parse_word("01"), parse_word("21"))


def test_q_heredity():
    for w in NONSPIRAL:
        tab = q_table(w)
        members = list(tab.entries)
        for x in members:
            if tab.q(x) > 0:
                for y in members:
                    if leq(y, x):
                        assert tab.q(y) > 0


def test_simple_move_q_invariance():
    random.seed(23)
    for w in random.sample(NONSPIRAL, 40):
        tab = q_table(w)
        for x in tab.entries:
            for u in descent_group(w):
                assert tab.q(x * u) == tab.q(x)


def test_q_lower_bounds_inside():
    """Off the base cases, q is at least 2 on and inside the 3-shell, and at
    least 1 on the 2-shell for a type 2 owner."""
    for w in NONSPIRAL:
        if length(w) < 4 or is_base_case(w):
            continue
        h = hull_of(w)
        tab = q_table(w)
        for x in tab.entries:
            k = shell_of(h, x.center())
            if k >= 3:
                assert tab.q(x) >= 2
            if k == 2 and type_of(w) == 2:
                assert tab.q(x) >= 1


def test_maximal_nrs_against_generic():
    for w in ELEMENTS:
        assert maximal_nrs(w) == walk.maximal_nrs(w), format_word(w)


def test_spiral_nrs_closed_form_to_24():
    """Every spiral owner with l <= 24: the word-deletion maximal nrs points
    are the maximal q_brute > 0 points, and the nrs set is their
    down-closure."""
    spirals = [w for w in elements_of_length_at_most(24) if is_spiral(w)]
    assert len(spirals) == 142
    for w in spirals:
        tops = walk.maximal_nrs(w)
        assert maximal_nrs(w) == tops, format_word(w)
        below = {x for x in interval(w) if any(leq(x, y) for y in tops)}
        assert q_table(w).nrs() == below, format_word(w)


def test_spiral_maximal_nrs_reads_no_table(monkeypatch):
    """A spiral owner's maximal nrs points are word deletions: neither a
    q table nor a down-closure is built for them."""
    calls = {"q_table": 0, "down_closure": 0}

    def counting(name):
        fn = getattr(qstat, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(qstat, name, counting(name))
    MEMOS["qstat.maximal_nrs"].clear()
    for word in ("012012", "2102102102102", "12012012012012"):
        w = parse_word(word)
        assert is_spiral(w) and maximal_nrs(w)
    assert calls == {"q_table": 0, "down_closure": 0}


def test_maximal_nrs_even_type1():
    found = False
    for w in NONSPIRAL:
        if (
            length(w) >= 7
            and chamber_parity(w) == "even"
            and type_of(w) == 1
            and not is_twisted_spiral(w)
        ):
            z = translate_out_of_chamber(w)
            assert maximal_nrs(w) == {z}
            assert length(z) == length(w) - 4
            assert q_value(w, z) == 2
            found = True
    assert found


def test_maximal_nrs_length5():
    found = False
    for w in NONSPIRAL:
        if length(w) == 5 and not is_rationally_smooth(w):
            (z,) = maximal_nrs(w)
            assert length(z) == 1 and q_value(w, z) == 2
            assert nrs_codimension(w) == 4
            found = True
    assert found


def test_nrs_codimension():
    for w in NONSPIRAL:
        c = nrs_codimension(w)
        if is_rationally_smooth(w):
            assert c is None
        elif length(w) >= 6:
            if chamber_parity(w) == "even" and type_of(w) == 1:
                assert c == 4
            else:
                assert c == 3
    for n in range(4, 10):
        for pattern in ((0, 1), (1, 2)):
            assert nrs_codimension(spiral_element(pattern, n)) == 3


def _q_layer_lines(bound):
    for w in sorted(elements_of_length_at_most(bound), key=_by_length):
        yield "owner %s" % format_word(w)
        for x in sorted(interval(w), key=_by_length):
            yield "%s %r %d %r" % (format_word(x), reflection_partners(w, x),
                                   q_brute(w, x), sorted(psi_set(w, x)))
        yield "lookup %s" % lookup_holds(w)
        if not is_spiral(w):
            h = hull_of(w)
            yield "diagonals %r" % [diagonal_centers(h, i) for i in range(6)]


def test_reflection_partners_match_the_walk():
    """Stepping t by 3 from the residue -pairing(x, d) gives the walked chord
    filtered to pairings summing to 0 mod 6, in order, for every owner with
    l <= 12 and every x <= w."""
    for w in elements_of_length_at_most(12):
        h = hull_of(w)
        for x in interval(w):
            cx = x.center()
            walked = [(d, c) for d in POSITIVE_ROOTS for c in walk_chord(h, cx, d)
                      if (pairing(c, d) + pairing(cx, d)) % 6 == 0]
            assert reflection_partners(w, x) == walked, (format_word(w), format_word(x))


def test_q_layer_outputs_are_pinned():
    # The reflection walk in order, q, Psi, the lookup oracle and the hull
    # diagonals of every owner with l <= 10, as the separate string walks
    # of reflection_partners and diagonal_centers computed them.
    text = "\n".join(_q_layer_lines(10))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1e70aa6f1c4832de7e7d56b22308c2fdbb08d4046374bbe40ecbcaa4910790ad"
    )


def test_q_tables_are_pinned():
    """Every entry of every q_table with l <= 14, spiral owners included:
    the value and its provenance tag, in to_dict's JSON form."""
    h = hashlib.sha256()
    for w in sorted(elements_of_length_at_most(14), key=_by_length):
        h.update(json.dumps(q_table(w).to_dict(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == (
        "d012645d833937ad68a37fbafca7716ba2224347bbe9ce04c80780be77dfa529"
    )


def test_nrs_set_is_one_memoized_frozenset(monkeypatch):
    """The nrs locus of w is held as one memoized frozenset, its maximal
    points: every nrs(w, x) query reads it without recomputing it.  The
    reads are counted at maximal_nrs, and a recomputation would call
    _maximal_nrs, which raises here."""
    w = parse_word("0120120102")
    MEMOS["qstat.maximal_nrs"].clear()
    points = maximal_nrs(w)
    assert isinstance(points, frozenset)
    reads = []

    def counting(v):
        reads.append(v)
        return maximal_nrs(v)

    def raising(v):
        raise AssertionError("maximal_nrs recomputed")

    monkeypatch.setattr(qstat, "maximal_nrs", counting)
    monkeypatch.setattr(qstat, "_maximal_nrs", raising)
    assert [x for x in interval(w) if nrs(w, x)]
    assert reads == [w] * len(interval(w))
    assert maximal_nrs(w) is points


def test_spiral_nrs_set_counts_no_reflections(monkeypatch):
    """A spiral owner's nrs set is the down-closure of its word-deletion
    maximal nrs points: q_brute is never called for it."""
    calls = [0]
    brute = qstat.q_brute

    def counting(w, x):
        calls[0] += 1
        return brute(w, x)

    monkeypatch.setattr(qstat, "q_brute", counting)
    MEMOS["qstat.maximal_nrs"].clear()
    spirals = [w for w in elements_of_length_at_most(12) if is_spiral(w)]
    assert all(
        any(nrs(w, x) for x in interval(w)) for w in spirals if length(w) >= 4
    )
    assert calls == [0]
    MEMOS["qstat.maximal_nrs"].clear()


def test_nrs_reads_the_maximal_nrs_points(monkeypatch):
    """For every owner with l <= 12, nrs(w, x) is membership in
    q_table(w).nrs() for every x <= w, and it is answered below the maximal
    nrs points: it calls neither q_table nor q_brute, spiral owners
    included."""
    owners = sorted(elements_of_length_at_most(12), key=_by_length)
    assert len(owners) == 235
    expected = {w: q_table(w).nrs() for w in owners}
    calls = []

    def counting(name):
        fn = getattr(qstat, name)

        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    for name in ("q_table", "q_brute"):
        monkeypatch.setattr(qstat, name, counting(name))
    MEMOS["qstat.maximal_nrs"].clear()
    pairs = 0
    for w in owners:
        for x in interval(w):
            assert nrs(w, x) == (x in expected[w]), (format_word(w), format_word(x))
            pairs += 1
    assert calls == [] and pairs > 10000
    assert any(expected[w] for w in owners if is_spiral(w))


def test_lookup_holds():
    for w in ELEMENTS:
        assert lookup_holds(w), format_word(w)


def _spiral_lookup_witnesses():
    """Spiral owners with an nrs point of q = 0, which only lookup finds."""
    for n in range(4, 9):
        w = spiral_element((0, 2), n)
        if any(q_brute(w, x) == 0 and nrs(w, x) for x in interval(w)):
            yield w


def test_spiral_lookup_nontrivial_case_exists():
    assert next(_spiral_lookup_witnesses(), None) is not None


def test_lookup_fails_without_the_step_up(monkeypatch):
    """With no partner above any x, lookup misses the spiral nrs points of
    q = 0, so the lookup gate cannot pass vacuously."""
    w = next(_spiral_lookup_witnesses())
    assert lookup_holds(w)
    monkeypatch.setattr(qstat, "_above", lambda q, p: False)
    assert not lookup_holds(w)


def test_lookup_fails_when_partners_below_count(monkeypatch):
    """With every q > 0 partner counted, those below x too, smooth points
    are looked up and lookup fails at 186 of the 235 owners with l <= 12:
    the looked-up set is checked to lie inside the nrs set as well."""
    owners = elements_of_length_at_most(12)
    assert all(lookup_holds(w) for w in owners)
    monkeypatch.setattr(qstat, "_above", lambda q, p: True)
    assert sum(not lookup_holds(w) for w in owners) == 186


def test_lookup_matches_the_length_reference():
    for w in elements_of_length_at_most(10):
        assert lookup_holds(w) == walk.lookup_holds(w), format_word(w)


def test_order_tests_build_no_center(monkeypatch):
    """leq, down_closure and bruhat_maximal read the elements' lattice
    coordinates: with AffineElement.center raising, they still agree with
    the subexpression oracle on a few owners, spiral ones included.  Hulls
    and lengths are built before the patch."""
    owners = [parse_word(t) for t in ("0121", "01210", "0120120", "012101201", "2102102102102")]
    candidates = elements_of_length_at_most(14)
    cases = []
    for w in owners:
        members = interval(w)
        tab = q_table(w)
        tops = [x for x in members if tab.q(x) > 0]
        for x in candidates:
            hull_of(x)
            length(x)
        below = {y: oracle_interval(y) for y in tops}
        closure = {x for x in members if any(x in below[y] for y in tops)}
        maximal = {y for y in tops if not any(y != z and y in below[z] for z in tops)}
        cases.append((w, oracle_interval(w), members, tops, closure, maximal))

    def no_center(self):
        raise AssertionError("center built for %s" % (self,))

    monkeypatch.setattr(AffineElement, "center", no_center)
    for w, below, members, tops, closure, maximal in cases:
        assert all(leq(x, w) == (x in below) for x in candidates), format_word(w)
        assert down_closure(members, tops) == closure
        assert bruhat_maximal(tops) == maximal
        assert bruhat_maximal(members) == {w}


def test_down_closure_is_the_pairwise_definition():
    """down_closure against its definition for every owner with l <= 10,
    with the q > 0 points, the singular set and a seeded random subset of
    the interval as tops."""
    rng = random.Random(15)
    for w in sorted(elements_of_length_at_most(10), key=_by_length):
        members = sorted(interval(w), key=_by_length)
        tab, smooth = q_table(w), smooth_points(w)
        for tops in (
            [x for x in members if tab.q(x) > 0],
            [x for x in members if x not in smooth],
            rng.sample(members, rng.randint(0, len(members))),
        ):
            expected = {x for x in members if any(leq(x, y) for y in tops)}
            assert down_closure(members, tops) == expected, format_word(w)


def test_reflections_counted_equal_the_partners_listed():
    """q_brute's count off the chords equals the listed partners, less
    l(w), for every x <= w with l(w) <= 14."""
    for w in elements_of_length_at_most(14):
        lw = length(w)
        for x in interval(w):
            assert q_brute(w, x) + lw == len(reflection_partners(w, x)), (
                format_word(w), format_word(x))


def test_partners_above_by_the_side_of_the_line():
    """The rank rule on the two pairings picks exactly the partners r*x
    with l(r*x) > l(x), for every x <= w with l(w) <= 12."""
    checked = 0
    for w in elements_of_length_at_most(12):
        for x in interval(w):
            lx, cx = length(x), x.center()
            for d, c in reflection_partners(w, x):
                assert qstat._above(pairing(c, d), pairing(cx, d)) == (
                    length(element_from_center(c)) > lx), (
                    format_word(w), format_word(x), d)
                checked += 1
    assert checked == 170256


def test_q_and_lookup_read_no_chords(monkeypatch):
    """q_brute and lookup_holds list no chord and no string: with
    bruhat.chords and bruhat.string_centers raising wherever they are
    bound, they still match the walk's partner counts and lookup for every
    owner with l <= 10.  The references are built first."""
    owners = sorted(elements_of_length_at_most(10), key=_by_length)
    counts = {
        (w, x): len(reflection_partners(w, x)) - length(w)
        for w in owners for x in interval(w)
    }
    looked_up = {w: walk.lookup_holds(w) for w in owners}

    def raising(*args):
        raise AssertionError("chords or string_centers called")

    for name in ("chords", "string_centers"):
        fn = getattr(bruhat, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("schubert_a2") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, raising)
    with pytest.raises(AssertionError):
        bruhat.chords(hull_of(E), E.center())
    for (w, x), n in counts.items():
        assert q_brute(w, x) == n, (format_word(w), format_word(x))
    for w in owners:
        assert lookup_holds(w) == looked_up[w], format_word(w)


def test_q_brute_names_the_pair_it_cannot_compare():
    """For every owner with l <= 8 and every x with l(x) <= l(w) + 2 not
    below w, q_brute raises NotComparableError with require_below's
    message."""
    candidates = elements_of_length_at_most(10)
    checked = 0
    for w in elements_of_length_at_most(8):
        for x in candidates:
            if length(x) > length(w) + 2 or leq(x, w):
                continue
            with pytest.raises(NotComparableError) as expected:
                require_below(x, w)
            with pytest.raises(NotComparableError) as raised:
                q_brute(w, x)
            assert str(raised.value) == str(expected.value) == "%s is not below %s" % (
                display_word(x), display_word(w))
            checked += 1
    assert checked == 8223


def shell_profile_consistent(w):
    """Even-chamber shell profile of q, checked against the structured values.

    Away from the central triangle cut out by the three main diagonals, q
    should equal 2*(k//3) on the k-shell for a type 1 owner, with an extra
    +1 on shells k = 2 mod 3 for type 2.
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
    rw = descent_group(w)
    tab = q_table(w)
    for x in tab.entries:
        if any(in_triangle((x * u).center()) for u in rw):
            continue
        k = shell_of(hx, x.center())
        expect = 2 * (k // 3) + (1 if (t == 2 and k % 3 == 2) else 0)
        if tab.q(x) != expect:
            return False
    return True


def test_shell_profile_consistency():
    checked = 0
    for w in NONSPIRAL:
        if chamber_parity(w) == "even" and length(w) >= 4:
            assert shell_profile_consistent(w), format_word(w)
            checked += 1
    assert checked > 20
    with pytest.raises(ValueError):
        shell_profile_consistent(parse_word("012"))


def test_psi_count_matches_q():
    for w in [x for x in ELEMENTS if length(x) <= 7]:
        lw = length(w)
        for x in interval(w):
            assert len(psi_set(w, x)) == q_brute(w, x) + lw

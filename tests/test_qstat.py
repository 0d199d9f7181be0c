"""The statistic q, the nrs locus, maximal nrs points, lookup."""

import random

import pytest

from schubert_a2.alcove import (
    E,
    SIMPLES,
    SpiralInputError,
    ascents,
    chamber_parity,
    descent_group,
    descents,
    format_word,
    is_spiral,
    is_twisted_spiral,
    length,
    parse_word,
    spiral_element,
    translate_into_chamber,
    translate_out_of_chamber,
    type_of,
    word_to_element,
)
from schubert_a2.bruhat import hexagon, hull_of, interval, leq, shell_index
from schubert_a2.loci import elements_of_length_at_most
from schubert_a2.qstat import (
    NotComparableError,
    is_base_case,
    is_rationally_smooth,
    lookup_holds,
    maximal_nrs,
    maximal_nrs_generic,
    nrs,
    nrs_codimension,
    nrs_set,
    q_brute,
    q_structured,
    q_table,
    q_value,
    shell_profile_consistent,
)

ELEMENTS = sorted(elements_of_length_at_most(9), key=lambda w: (length(w), format_word(w)))
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
            k = shell_index(h, x)
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
                assert q == (2 if shell_index(h, x) >= 2 else 0)
        assert all(tag == "base-case" for _, tag in tab.entries.values())


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
            for u in descent_group(w, "right"):
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
            k = shell_index(h, x)
            if k >= 3:
                assert tab.q(x) >= 2
            if k == 2 and type_of(w) == 2:
                assert tab.q(x) >= 1


def test_maximal_nrs_against_generic():
    for w in ELEMENTS:
        if is_spiral(w):
            assert maximal_nrs(w) == maximal_nrs_generic(w)
        else:
            assert maximal_nrs(w) == maximal_nrs_generic(w), format_word(w)


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


def test_lookup_holds():
    for w in ELEMENTS:
        assert lookup_holds(w), format_word(w)


def test_spiral_lookup_nontrivial_case_exists():
    found = False
    for n in range(4, 9):
        w = spiral_element((0, 2), n)
        for x in interval(w):
            if q_brute(w, x) == 0 and nrs(w, x):
                found = True
    assert found


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
    from schubert_a2.kumar import psi_set

    for w in [x for x in ELEMENTS if length(x) <= 7]:
        lw = length(w)
        for x in interval(w):
            assert len(psi_set(w, x)) == q_brute(w, x) + lw

"""Smooth loci, maximal singular points, codimension reports, censuses."""

import random

import pytest

from schubert_a2.alcove import (
    E,
    chamber_parity,
    format_word,
    is_spiral,
    is_twisted_spiral,
    length,
    parse_word,
    spiral_element,
    translate_out_of_chamber,
    type_of,
    word_to_element,
)
from schubert_a2.bruhat import hexagon, interval, leq
from schubert_a2.loci import (
    attached_edge_lengths,
    classify_schubert,
    dim_bound_check,
    elements_of_length_at_most,
    enumerate_smooth_varieties,
    locus_report,
    maximal_singular,
    short_edge_family,
    singular_codim,
    smooth_points,
)
from schubert_a2.qstat import (
    bruhat_maximal,
    maximal_nrs,
    nrs_codimension,
    nrs_set,
)

ELEMENTS = sorted(elements_of_length_at_most(8), key=lambda w: (length(w), format_word(w)))


def test_codim_one_points_are_smooth():
    for w in ELEMENTS:
        pts = smooth_points(w)
        for x in interval(w):
            if length(x) == length(w) - 1:
                assert x in pts


def test_generic_type1_has_36_smooth_points():
    found = False
    for w in sorted(elements_of_length_at_most(11), key=length):
        if is_spiral(w) or is_twisted_spiral(w) or type_of(w) != 1:
            continue
        if chamber_parity(w) != "even":
            continue
        hx = hexagon(w)
        if all(len(hx.edge(i)) >= 6 for i in range(6)):
            assert len(smooth_points(w)) == 36
            found = True
    assert found


def test_smooth_counts_never_exceed_36():
    for w in ELEMENTS:
        assert len(smooth_points(w)) <= 36


def test_smooth_matches_kumar():
    from schubert_a2.kumar import kumar_smooth_set

    for w in ELEMENTS:
        if length(w) <= 7:
            assert smooth_points(w) == kumar_smooth_set(w)


def test_maximal_singular_cases():
    # both attached edges long: exactly {x, x'}, each of length l(w) - 2
    found_long = found_single = False
    for w in sorted(elements_of_length_at_most(12), key=length):
        if is_spiral(w) or classify_schubert(w) == "smooth":
            continue
        lens = attached_edge_lengths(w)
        ms = maximal_singular(w)
        if lens[0] >= 6 and lens[1] >= 6:
            assert len(ms) == 2
            assert all(length(x) == length(w) - 2 for x in ms)
            found_long = True
        if lens == [4, 6] and chamber_parity(w) == "even" and type_of(w) == 1:
            # the translated-in maximal nrs point drops below x
            assert len(ms) == 1
            (x,) = ms
            assert leq(translate_out_of_chamber(w), x)
            found_single = True
    assert found_long and found_single


def test_maximal_singular_matches_kumar_scan():
    from schubert_a2.kumar import kumar_smooth_set

    for w in ELEMENTS:
        smooth = kumar_smooth_set(w)
        singular = [x for x in interval(w) if x not in smooth]
        expected = bruhat_maximal(singular) if singular else set()
        assert maximal_singular(w) == expected, format_word(w)


def test_singular_codim():
    for w in ELEMENTS:
        c = singular_codim(w)
        if classify_schubert(w) == "smooth":
            assert c is None
        elif max(attached_edge_lengths(w)) >= 6:
            assert c == 2
        else:
            assert c == nrs_codimension(w) and c in (3, 4)
    # twisted spirals of length >= 7: rationally smooth yet singular, codim 2
    for w in sorted(elements_of_length_at_most(9), key=length):
        if is_twisted_spiral(w) and length(w) >= 7:
            assert classify_schubert(w) == "rationally-smooth-only"
            assert nrs_codimension(w) is None
            assert singular_codim(w) == 2


def test_classify_examples():
    assert classify_schubert(word_to_element([0, 1, 0, 2])) == "smooth"
    for w in ELEMENTS:
        if is_twisted_spiral(w) and length(w) == 7:
            assert classify_schubert(w) == "rationally-smooth-only"
        if length(w) == 6:
            assert classify_schubert(w) == "singular"


def test_enumerate_smooth_varieties():
    rows = enumerate_smooth_varieties()
    assert sum(r["count"] for r in rows) == 31
    by_len = {}
    for r in rows:
        by_len[r["length"]] = by_len.get(r["length"], 0) + r["count"]
    assert [by_len[i] for i in range(6)] == [1, 3, 6, 9, 6, 6]
    (l5,) = [r for r in rows if r["length"] == 5]
    assert l5["pattern"] == "s_i s_j s_k s_i s_k" and l5["count"] == 6
    for r in rows:
        for m in r["members"]:
            assert classify_schubert(parse_word(m)) == "smooth"


def test_short_edge_family():
    fam = short_edge_family()
    assert len(fam) == 64
    kinds = [classify_schubert(w) for w in fam]
    assert kinds.count("singular") == 33
    assert kinds.count("smooth") == 31
    # every smooth variety is in the family
    smooth_words = {m for r in enumerate_smooth_varieties() for m in r["members"]}
    assert {format_word(w) for w in fam if classify_schubert(w) == "smooth"} == smooth_words


def test_dim_bounds():
    for w in ELEMENTS:
        assert dim_bound_check(w)
    # sharpness: min smooth length is exactly l(w) - 6 for non-twisted
    # type 1 even owners of length at least 7
    found = False
    for w in sorted(elements_of_length_at_most(11), key=length):
        if is_spiral(w) or is_twisted_spiral(w) or length(w) < 7:
            continue
        if type_of(w) == 1 and chamber_parity(w) == "even":
            assert min(length(x) for x in smooth_points(w)) == length(w) - 6
            found = True
    assert found


def test_codim7_absorption():
    for w in ELEMENTS:
        for x in smooth_points(w):
            assert length(x) > length(w) - 7


def test_downward_closures():
    from schubert_a2.kumar import kumar_smooth_set

    random.seed(31)
    for w in random.sample(ELEMENTS, 60):
        members = interval(w)
        singular = {x for x in members if x not in kumar_smooth_set(w)}
        nrs_members = nrs_set(w)
        assert nrs_members <= singular
        for closed in (singular, nrs_members):
            for x in closed:
                for y in members:
                    if leq(y, x):
                        assert y in closed


def test_locus_report():
    w = parse_word("012101")
    rep = locus_report(w)
    data = rep.to_dict()
    assert data["owner"] == format_word(w)
    assert parse_word(data["owner"]) == w
    assert data["summary"]["classification"] == "singular"
    assert data["summary"]["smooth_point_count"] <= 36
    for rec in data["records"]:
        if rec["smooth"]:
            assert not rec["nrs"]
    # maximal flags point at actual members
    max_nrs_words = {format_word(z) for z in maximal_nrs(w)}
    assert {r["x"] for r in data["records"] if r["maximal_nrs"]} == max_nrs_words


def test_spiral_report_uses_kumar():
    w = spiral_element((0, 1), 5)
    rep = locus_report(w)
    assert rep.summary["classification"] == "singular"
    assert rep.summary["singular_codimension"] == 2
    assert rep.summary["nrs_codimension"] == 3

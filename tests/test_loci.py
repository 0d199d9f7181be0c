"""Smooth loci, maximal singular points, codimension reports, censuses."""

import hashlib
import json
import random

import pytest

from schubert_a2.alcove import (
    AffineElement,
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
from schubert_a2 import kumar, loci, qstat, verify
from schubert_a2.bruhat import hexagon, hull_of, interval, leq, shell_of
from schubert_a2.kumar import kumar_smooth_set
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
from schubert_a2.memos import MEMOS
from schubert_a2.qstat import (
    bruhat_maximal,
    maximal_nrs,
    nrs_codimension,
    q_brute,
    q_table,
)
from walk import walk_between


def _by_length(w):
    return (length(w), format_word(w))


ELEMENTS = sorted(elements_of_length_at_most(8), key=_by_length)


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


def test_bruhat_maximal_matches_pairwise_leq(monkeypatch):
    """bruhat_maximal gives the maximal elements of the pairwise leq
    definition and calls hull_of once per element it returns, on the
    singular set, the nrs set and a seeded random subset of the interval
    of every l <= 10 owner."""

    def pairwise(elements):
        return {x for x in elements if not any(y != x and leq(x, y) for y in elements)}

    rng = random.Random(16)
    cases = []
    for w in sorted(elements_of_length_at_most(10), key=_by_length):
        ordered = sorted(interval(w), key=_by_length)
        cases.append((w, interval(w) - smooth_points(w)))
        cases.append((w, q_table(w).nrs()))
        cases.append((w, set(rng.sample(ordered, rng.randint(0, len(ordered))))))
    built = []

    def counting_hull_of(y):
        built.append(y)
        return hull_of(y)

    monkeypatch.setattr(qstat, "hull_of", counting_hull_of)
    for w, members in cases:
        built.clear()
        result = bruhat_maximal(members)
        assert result == pairwise(members), format_word(w)
        assert len(built) == len(result) and set(built) == result, format_word(w)


def test_singular_codim():
    """The codimension read off the maximal singular points follows the
    edge rule for every owner with l <= 14, and the report's summary gives
    the same two codimensions."""
    for w in sorted(elements_of_length_at_most(14), key=_by_length):
        c = singular_codim(w)
        if classify_schubert(w) == "smooth":
            assert c is None
        elif max(attached_edge_lengths(w)) >= 6:
            assert c == 2
        else:
            assert c == nrs_codimension(w) and c in (3, 4)
        summary = locus_report(w).summary
        assert summary["nrs_codimension"] == nrs_codimension(w)
        assert summary["singular_codimension"] == c
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
    random.seed(31)
    for w in random.sample(ELEMENTS, 60):
        members = interval(w)
        singular = members - kumar_smooth_set(w)
        nrs_members = q_table(w).nrs()
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


def test_spiral_loci_match_the_multiplicity_test():
    """The spiral closed forms against Kumar's test, every spiral owner with
    l <= 16."""
    owners = [w for w in elements_of_length_at_most(16) if is_spiral(w)]
    assert len(owners) == 94
    for w in owners:
        smooth = kumar_smooth_set(w)
        assert smooth_points(w) == smooth, format_word(w)
        assert maximal_singular(w) == bruhat_maximal(interval(w) - smooth), format_word(w)


def test_attached_edges_run_from_the_owner_to_its_hull_neighbours():
    """The first hull edge and the last one reversed are the centers from w
    to its two ring neighbours, as the stepping walk finds them, for the
    identity, the l = 1 chains, the quadrilaterals and the hexagons of
    every owner with l <= 10."""
    kinds = set()
    for w in elements_of_length_at_most(10):
        v = [x.center() for x in hull_of(w).vertices]
        kinds.add(len(v))
        expected = [walk_between(v[0], v[min(1, len(v) - 1)]), walk_between(v[0], v[-1])]
        assert loci._attached_edges(w) == expected, format_word(w)
    assert kinds == {1, 2, 4, 6}


def test_spiral_report_reads_the_closed_form():
    w = spiral_element((0, 1), 5)
    rep = locus_report(w)
    assert rep.summary["classification"] == "singular"
    assert rep.summary["singular_codimension"] == 2
    assert rep.summary["nrs_codimension"] == 3


# sha256 of every report with l <= 10, one sorted-key JSON line per owner,
# owners by length then word.
LOCUS_REPORTS_L10_SHA256 = "13193ea08dbbd843556b12fa177be9652d62e890292bf3bf7f108bfbb2c2a3ac"


def test_locus_reports_are_pinned():
    h = hashlib.sha256()
    for w in sorted(elements_of_length_at_most(10), key=lambda v: (length(v), format_word(v))):
        h.update((json.dumps(locus_report(w).to_dict(), sort_keys=True) + "\n").encode())
    assert h.hexdigest() == LOCUS_REPORTS_L10_SHA256


@pytest.mark.parametrize("word", ["0120120", "012101201"])
def test_locus_report_evaluates_each_locus_once(word, monkeypatch):
    w = parse_word(word)
    calls = []

    def counting(v):
        calls.append(v)
        return kumar_smooth_set(v)

    for module in (kumar, verify):
        monkeypatch.setattr(module, "kumar_smooth_set", counting)
    memo = MEMOS["qstat.maximal_nrs"]
    memo.clear()
    locus_report(w)
    assert list(memo) == [w]  # one miss: one key stored
    assert calls == []


def test_spiral_locus_report_builds_one_table(monkeypatch):
    """A spiral report builds its q table and its nrs down-closure once:
    the maximal nrs points and both codimensions are word deletions, and
    the table's nrs set closes them downward.  The table's rows are
    counted where the report reads them.  (The smooth locus's closure of
    the maximal singular points is loci's own call, which the qstat
    wrappers do not see.)"""
    calls = {"_brute_rows": 0, "down_closure": 0}

    def counting(name):
        fn = getattr(qstat, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(qstat, name, counting(name))
    monkeypatch.setattr(loci, "_brute_rows", qstat._brute_rows)
    MEMOS["qstat.maximal_nrs"].clear()
    w = parse_word("2102102102102")
    assert is_spiral(w)
    locus_report(w)
    assert calls == {"_brute_rows": 1, "down_closure": 1}


def test_non_spiral_locus_report_reads_shells_off_the_q_walk(monkeypatch):
    """Off the strips a record's shell is the top shell the q walk read:
    every non-spiral report with l <= 10 is unchanged, and reads exactly
    the shells that its owner's q table reads, in the same order."""
    owners = [w for w in elements_of_length_at_most(10) if not is_spiral(w)]
    expected = [locus_report(w).to_dict() for w in owners]
    reads = []
    shell_of = qstat.shell_of

    def counting(h, c):
        reads.append((h.owner, c))
        return shell_of(h, c)

    monkeypatch.setattr(qstat, "shell_of", counting)
    for w, report in zip(owners, expected):
        reads.clear()
        q_table(w)
        table_reads = list(reads)
        reads.clear()
        assert locus_report(w).to_dict() == report, format_word(w)
        assert reads == table_reads, format_word(w)


def test_spiral_locus_report_reads_each_center_once(monkeypatch):
    """On the strips a record's q and shell are q_brute's and shell_of's,
    for every spiral owner with l <= 14, and the rows they come from read
    each member's center once."""
    spirals = [w for w in elements_of_length_at_most(14) if is_spiral(w)]
    for w in spirals:
        h = hull_of(w)
        report = locus_report(w)
        for x, record in zip(report.members, report.records):
            assert record["q"] == q_brute(w, x), (format_word(w), record)
            assert record["shell"] == shell_of(h, x.center()), (format_word(w), record)
    reads = []
    center = AffineElement.center

    def counting(x):
        reads.append(x)
        return center(x)

    monkeypatch.setattr(AffineElement, "center", counting)
    for w in spirals:
        members = interval(w)
        reads.clear()
        rows = list(qstat._brute_rows(w))
        assert [x for x, _, _ in rows] == list(members)
        assert sorted(reads) == sorted(members), format_word(w)


def test_spiral_locus_report_reads_the_interval_once(monkeypatch):
    """A spiral report's smooth points come from the interval its q table
    already holds: one interval(w) per report."""
    calls = []

    def counting(v):
        calls.append(v)
        return interval(v)

    for module in (loci, qstat):
        monkeypatch.setattr(module, "interval", counting)
    w = parse_word("2102102102102")
    assert is_spiral(w)
    report = locus_report(w)
    assert calls == [w]
    assert {parse_word(r["x"]) for r in report.records if r["smooth"]} == smooth_points(w)


def test_spiral_locus_report_builds_no_multiplicity_table():
    w = parse_word("2102102102102")
    assert is_spiral(w)
    memo = MEMOS["kumar.multiplicity_table_of"]
    memo.clear()
    locus_report(w)
    assert memo == {}


def test_spiral_locus_report_computes_its_maximal_singular_points_once(monkeypatch):
    """The report's smooth points are read off the maximal singular points
    it computes for its flags: one word-deletion closed form per report."""
    calls = []
    closed_form = loci._spiral_maximal_singular

    def counting(w):
        calls.append(w)
        return closed_form(w)

    monkeypatch.setattr(loci, "_spiral_maximal_singular", counting)
    w = parse_word("2102102102102")
    assert is_spiral(w)
    report = locus_report(w)
    assert calls == [w]
    assert {parse_word(r["x"]) for r in report.records if r["smooth"]} == smooth_points(w)


def test_memoized_loci_are_frozensets():
    for word in ("", "0121", "0120120", "012101201"):
        w = parse_word(word)
        assert isinstance(maximal_nrs(w), frozenset)
        assert isinstance(kumar_smooth_set(w), frozenset)

"""Batch verification of the structural theorems against independent oracles.

Each criterion replays one exact statement over every owner up to a length
bound: the interval and leq against the subexpression oracle, the closed
q-form against brute reflection counting, heredity and lookup, the
multiplicity cross-checks, the Setup and Simple Move identities, and the
global censuses.  `CRITERIA` is the one table of them and `run_criterion`
the one runner: a row's per-owner check returns the names of the
identities that fail, and every failure is reported as `<identity> <word>`;
a check that raises is reported as `error:<ExceptionType> <word>`.
Every row checks exactly the bound it is given, and all checks are exact.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .alcove import (
    POSITIVE_ROOTS,
    Q0,
    Reflection,
    chamber_parity,
    descent_group,
    element_to_word,
    format_words,
    is_spiral,
    is_twisted_spiral,
    length,
    pairing,
    spiral_factorizations,
    translate_into_chamber,
    type_of,
)
from .bruhat import hexagon, interval, leq, oracle_interval
from .kumar import (
    SetupHypothesisError,
    kumar_smooth_set,
    multiplicity_table_of,
    multiplicity_tables,
    psi_set,
    setup_move_check,
    smoothness_target,
)
from .loci import (
    attached_edge_lengths,
    classify_schubert,
    dim_bound_check,
    elements_of_length_at_most,
    enumerate_smooth_varieties,
    maximal_singular,
    short_edge_family,
    singular_codim,
    smooth_points,
)
from .memos import memo
from .qstat import (
    bruhat_maximal,
    down_closure,
    is_rationally_smooth,
    lookup_holds,
    maximal_nrs,
    nrs_codimension,
    q_brute,
    q_table,
)


class CheckResult(NamedTuple):
    criterion: str
    passed: bool
    detail: str
    bound: int  # the length bound actually checked
    seconds: float  # wall time of the check


class Criterion(NamedTuple):
    name: str
    spiral: object  # which owners: None for all, True/False for (non-)spiral
    check: object  # element -> names of the identities failing for that owner
    facts: object = None  # bound -> failed census facts that are not per owner


_OWNERS = memo("verify._owners")


def _owners(bound):
    """(word, element, is spiral) for every owner of length <= bound, by
    length then word."""
    try:
        return _OWNERS[bound]
    except KeyError:
        pass
    words = format_words(elements_of_length_at_most(bound))
    owners = [(word, w, is_spiral(w)) for w, word in words.items()]
    owners.sort(key=lambda o: (len(o[0]), o[0]))
    return _OWNERS.setdefault(bound, tuple(owners))


def _reported(check, arg, label=None):
    """check(arg), or ["error:<ExceptionType>"] when it raises, followed by
    the label when one is given, so that one raising check fails its row
    and the later owners and rows still run."""
    try:
        return check(arg)
    except Exception as exc:
        name = "error:" + type(exc).__name__
        return [name if label is None else "%s %s" % (name, label)]


_ELEMENTS = memo("verify._elements")


def _elements(bound):
    """Every element of length <= bound, as a tuple."""
    try:
        return _ELEMENTS[bound]
    except KeyError:
        pass
    return _ELEMENTS.setdefault(bound, tuple(elements_of_length_at_most(bound)))


def _hull(w):
    # the interval, and leq for every x at most one longer than w, so the
    # elements just outside the hull are asked too
    below = oracle_interval(w)
    bad = [] if interval(w) == below else ["interval"]
    if not all(leq(x, w) == (x in below) for x in _elements(length(w) + 1)):
        bad.append("leq")
    return bad


def _q(w):
    tab = q_table(w)
    ok = all(q == q_brute(w, x) for x, (q, _) in tab.entries.items())
    return [] if ok else ["q-table"]


def _translation(w):
    wp = translate_into_chamber(w)
    if length(wp) != length(w) + 4:
        return ["translation-length"]
    if any(q_brute(wp, x) != q_brute(w, x) + 2 for x in interval(w)):
        return ["translation-q"]
    return []


def _heredity(w):
    # q > 0 is closed downward, so the existential nrs closure of the q > 0
    # points adds nothing (the trivial lookup).
    tab = q_table(w)
    positive = [x for x in tab.entries if tab.q(x) > 0]
    return [] if down_closure(tab.entries, positive) == set(positive) else ["heredity"]


def _lookup(w):
    return [] if lookup_holds(w) else ["lookup"]


def _kumar(w):
    # The multiplicity test is the oracle on every owner: smooth_points is
    # the hexagon closed form, or on a spiral owner the complement of the
    # down-closure of its word deletions, and maximal_singular is checked
    # against the maximal points outside the test's smooth set.
    smooth = kumar_smooth_set(w)
    bad = []
    if smooth_points(w) != smooth:
        bad.append("smooth-locus")
    if maximal_singular(w) != bruhat_maximal(x for x in interval(w) if x not in smooth):
        bad.append("maximal-singular")
    return bad


def _factorizations(bound):
    """Both spiral-factorisation words of every non-spiral owner, in one
    prefix-trie walk, each table equal to the owner's memoized table; the
    walk's tables never come from that memo."""
    owner_of = {
        tuple(element_to_word(u) + element_to_word(v)): w
        for _, w, spiral in _owners(bound)
        if not spiral
        for u, v in spiral_factorizations(w)
    }
    bad = {
        owner_of[fw]
        for fw, table in multiplicity_tables(owner_of)
        if table != multiplicity_table_of(owner_of[fw])
    }
    return ["factorizations %s" % (word or "e") for word, w, _ in _owners(bound) if w in bad]


def _setup_move_holds(w, x, i, side, psi):
    try:
        return setup_move_check(w, x, i, side, psi)
    except SetupHypothesisError:
        return True


def _setup(w):
    # Psi(w, x) is built once per member, for its six Setup Moves and |Psi|
    members = interval(w)
    psi = {x: psi_set(w, x) for x in members}
    bad = []
    if not all(
        _setup_move_holds(w, x, i, side, psi[x])
        for x in members
        for i in (0, 1, 2)
        for side in ("right", "left")
    ):
        bad.append("setup-move")
    # Simple Move (right descents): order, q, smoothness and |Psi| are
    # invariant along x -> xu for u in R(w); smoothness is the multiplicity
    # test on the memoized table, against targets from the Psi sets above.
    table = multiplicity_table_of(w)
    smooth = {x for x in members if table[x] == smoothness_target(w, x, psi[x])}
    tab = q_table(w)
    rw = descent_group(w)
    if not all(
        leq(xu, w)
        and tab.q(xu) == tab.q(x)
        and (xu in smooth) == (x in smooth)
        and len(psi[xu]) == len(psi[x])
        for x in members
        for xu in (x * u for u in rw)
    ):
        bad.append("simple-move")
    return bad


def _rational_smoothness(w):
    # rationally smooth exactly per the four-case closed form, against the
    # reflection count: no x <= w has q(w, x) > 0
    smooth = not any(q_brute(w, x) > 0 for x in interval(w))
    return [] if is_rationally_smooth(w) == smooth else ["rational-smoothness"]


def _census(bound):
    rows = enumerate_smooth_varieties()
    family = short_edge_family()
    facts = (
        ("smooth-total", sum(r["count"] for r in rows), 31),
        ("smooth-by-length",
         [sum(r["count"] for r in rows if r["length"] == n) for n in range(6)],
         [1, 3, 6, 9, 6, 6]),
        ("family", len(family), 64),
        ("family-singular", sum(classify_schubert(w) == "singular" for w in family), 33),
    )
    return ["%s %s" % (name, got) for name, got, want in facts if got != want]


def _even_type1_untwisted(w):
    return (
        not is_spiral(w)
        and chamber_parity(w) == "even"
        and type_of(w) == 1
        and not is_twisted_spiral(w)
    )


def _loci(w):
    # The maximal nrs points, closed forms on and off the strips, against
    # the maximal q > 0 points by the reflection count: the nrs set is the
    # q > 0 set closed downward, so both have the same maximal points.
    n = length(w)
    bad = []
    if maximal_nrs(w) != bruhat_maximal(x for x in interval(w) if q_brute(w, x) > 0):
        bad.append("maximal-nrs")
    if is_spiral(w):
        if n >= 4 and nrs_codimension(w) != 3:
            bad.append("spiral-nrs-codim")
    else:
        c = nrs_codimension(w)
        if c is not None:
            expect = 4 if (chamber_parity(w) == "even" and type_of(w) == 1) else 3
            if n >= 6 and c != expect:
                bad.append("nrs-codim")
    # the edge rule against the codimension read off the maximal singular points
    if classify_schubert(w) != "smooth":
        expect = 2 if max(attached_edge_lengths(w)) >= 6 else nrs_codimension(w)
        if singular_codim(w) != expect:
            bad.append("singular-codim")
    # spiral owners included: their smooth loci are the word-deletion closed form
    pts = smooth_points(w)
    if len(pts) > 36:
        bad.append("smooth-count")
    if not dim_bound_check(w):
        bad.append("dim-bound")
    if _even_type1_untwisted(w) and n >= 7 and min(map(length, pts)) != n - 6:
        bad.append("sharpness")
    return bad


def _is_36_point_witness(w):
    return (
        _even_type1_untwisted(w)
        and all(len(hexagon(w).edge(i)) >= 6 for i in range(6))
        and len(smooth_points(w)) == 36
    )


def _36_point_witness(bound):
    if bound >= 11 and not any(_is_36_point_witness(w) for _, w, _ in _owners(bound)):
        return ["no 36-point witness"]
    return []


def _inversion_count(w):
    """Reflections r with l(rw) < l(w), counted by scanning levels."""
    c = w.center()
    n = 0
    lw = length(w)
    for d in POSITIVE_ROOTS:
        lo, hi = sorted((pairing(Q0, d), pairing(c, d)))
        for k in range(lo // 3 - 1, hi // 3 + 2):
            if length(Reflection(d, k).element() * w) < lw:
                n += 1
    return n


def _inversions(w):
    return [] if _inversion_count(w) == length(w) else ["inversions"]


CRITERIA = {
    "hexagon": Criterion("hexagon-theorem", False, _hull),
    "spiral-hulls": Criterion("spiral-hulls", True, _hull),
    "q": Criterion("q-equivalence", False, _q),
    "translation": Criterion("translation-move", False, _translation),
    "heredity": Criterion("q-heredity", False, _heredity),
    "lookup": Criterion("lookup", None, _lookup),
    "kumar": Criterion("kumar-smooth-locus", None, _kumar, _factorizations),
    "setup": Criterion("setup-simple-moves", None, _setup),
    "enumerations": Criterion(
        "global-enumerations", None, _rational_smoothness, _census
    ),
    "loci": Criterion("loci-structure", None, _loci, _36_point_witness),
    "inversions": Criterion("inversion-identity", None, _inversions),
}

SUITES = {
    "hexagon": ("hexagon", "spiral-hulls"),
    "q": ("q", "translation", "inversions"),
    "lookup": ("heredity", "lookup"),
    "kumar": ("kumar", "setup"),
    "loci": ("enumerations", "loci"),
    "all": tuple(CRITERIA),
}


def run_criterion(key, max_length=12):
    """Check one criterion on every owner up to max_length; the result
    carries that bound and the wall time of the whole check, census facts
    included.  A row's facts, such as the kumar row's factorisation walk,
    run once, after its per-owner checks.  An unknown key, or a bound that
    leaves the criterion no owner, is a ValueError: no gate passes on zero
    checks."""
    if key not in CRITERIA:
        raise ValueError("unknown criterion %r" % key)
    if max_length < 0:
        raise ValueError("max_length must be non-negative, got %d" % max_length)
    start = time.perf_counter()
    row = CRITERIA[key]
    owners = [(word, w) for word, w, spiral in _owners(max_length) if row.spiral in (None, spiral)]
    if not owners:
        raise ValueError("%s has no owners with l <= %d" % (row.name, max_length))
    failures = [
        "%s %s" % (name, word or "e")
        for word, w in owners
        for name in _reported(row.check, w)
    ]
    if row.facts:
        failures += _reported(row.facts, max_length, label=row.facts.__name__)
    detail = "%d checks (l <= %d)" % (len(owners), max_length)
    if failures:
        detail = "%d failed in %s: %s" % (len(failures), detail, ", ".join(failures[:5]))
    return CheckResult(row.name, not failures, detail, max_length, time.perf_counter() - start)


def run_suite(suite="all", max_length=12):
    """Run one named verification suite; returns a list of CheckResult."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    return [run_criterion(key, max_length) for key in SUITES[suite]]

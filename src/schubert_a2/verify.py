"""Batch verification of the structural theorems against independent oracles.

Each criterion replays one exact statement over every element up to a
length bound: hull membership against the subexpression oracle, the closed
q-form against brute reflection counting, heredity and lookup, the
multiplicity cross-checks, the Setup and Simple Move identities, and the
global censuses.  All checks are exact; a failure reports the first few
offending elements.
"""

from __future__ import annotations

import multiprocessing
from typing import NamedTuple

from .alcove import (
    POSITIVE_ROOTS,
    Q0,
    Reflection,
    chamber_parity,
    descent_group,
    format_word,
    is_spiral,
    is_twisted_spiral,
    length,
    pairing,
    parse_word,
    spiral_factorizations,
    translate_into_chamber,
    type_of,
)
from .bruhat import hexagon, interval, leq, oracle_interval
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
from .qstat import (
    bruhat_maximal,
    lookup_holds,
    maximal_nrs,
    maximal_nrs_generic,
    nrs_codimension,
    q_brute,
    q_table,
)


class CheckResult(NamedTuple):
    criterion: str
    passed: bool
    detail: str


def _sorted_elements(max_length, spiral=None):
    out = []
    for w in elements_of_length_at_most(max_length):
        if spiral is None or is_spiral(w) == spiral:
            out.append(w)
    out.sort(key=lambda w: (length(w), format_word(w)))
    return out


def _report(criterion, failures, checked):
    if failures:
        shown = ", ".join(failures[:5])
        return CheckResult(
            criterion, False, "%d/%d failed: %s" % (len(failures), checked, shown)
        )
    return CheckResult(criterion, True, "%d checks" % checked)


def _pool_map(fn, items, workers):
    if workers <= 1:
        return [fn(x) for x in items]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(fn, items)


# --- criterion workers operate on word strings so they pickle cleanly ----

def _hexagon_worker(word):
    w = parse_word(word)
    return word, interval(w) == oracle_interval(w)


def _q_worker(word):
    w = parse_word(word)
    tab = q_table(w)
    return word, all(q == q_brute(w, x) for x, (q, _) in tab.entries.items())


def _lookup_worker(word):
    return word, lookup_holds(parse_word(word))


def _heredity_worker(word):
    w = parse_word(word)
    tab = q_table(w)
    members = list(tab.entries)
    positive = [x for x in members if tab.q(x) > 0]
    for x in positive:
        for y in members:
            if tab.q(y) == 0 and leq(y, x):
                return word, False
    # trivial lookup: nrs (existential) agrees with q > 0 pointwise
    for x in members:
        if any(leq(x, y) for y in positive) != (tab.q(x) > 0):
            return word, False
    return word, True


def _kumar_worker(word):
    from .kumar import kumar_smooth_set, multiplicity_table

    w = parse_word(word)
    if smooth_points(w) != kumar_smooth_set(w):
        return word, False
    if not is_spiral(w) and length(w) >= 1:
        tables = []
        for u, v in spiral_factorizations(w):
            from .alcove import element_to_word

            tables.append(multiplicity_table(element_to_word(u) + element_to_word(v)))
        a, b = tables
        if set(a) != set(b) or any(a[x] != b[x] for x in a):
            return word, False
    return word, True


def _setup_worker(word):
    from .kumar import SetupHypothesisError, setup_move_check
    from .kumar import kumar_smooth_set, psi_set

    w = parse_word(word)
    members = sorted(interval(w), key=lambda x: (length(x), format_word(x)))
    for x in members:
        for i in (0, 1, 2):
            for side in ("right", "left"):
                try:
                    if not setup_move_check(w, x, i, side):
                        return word, False
                except SetupHypothesisError:
                    pass
    # Simple Move (right descents): order, q, rational smoothness, and
    # smoothness are invariant along x -> xu for u in R(w).
    smooth = kumar_smooth_set(w)
    tab = q_table(w)
    rw = descent_group(w, "right")
    for x in members:
        for u in rw:
            xu = x * u
            if not leq(xu, w):
                return word, False
            if tab.q(xu) != tab.q(x):
                return word, False
            if (xu in smooth) != (x in smooth):
                return word, False
            if len(psi_set(w, xu)) != len(psi_set(w, x)):
                return word, False
    return word, True


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


def _inversion_worker(word):
    w = parse_word(word)
    return word, _inversion_count(w) == length(w)


# --- criteria ------------------------------------------------------------

def check_hexagon(max_length=12, workers=1):
    words = [format_word(w) for w in _sorted_elements(max_length, spiral=False)]
    res = _pool_map(_hexagon_worker, words, workers)
    return _report("hexagon-theorem", [w for w, ok in res if not ok], len(res))


def check_spiral_hulls(max_length=12, workers=1):
    words = [format_word(w) for w in _sorted_elements(max_length, spiral=True)]
    res = _pool_map(_hexagon_worker, words, workers)
    return _report("spiral-hulls", [w for w, ok in res if not ok], len(res))


def check_q_equivalence(max_length=12, workers=1):
    words = [format_word(w) for w in _sorted_elements(max_length, spiral=False)]
    res = _pool_map(_q_worker, words, workers)
    return _report("q-equivalence", [w for w, ok in res if not ok], len(res))


def check_translation_move(max_length=10, workers=1):
    failures = []
    checked = 0
    for w in _sorted_elements(min(max_length, 10), spiral=False):
        wp = translate_into_chamber(w)
        checked += 1
        if length(wp) != length(w) + 4:
            failures.append(format_word(w))
            continue
        if any(q_brute(wp, x) != q_brute(w, x) + 2 for x in interval(w)):
            failures.append(format_word(w))
    return _report("translation-move", failures, checked)


def check_heredity(max_length=12, workers=1):
    words = [format_word(w) for w in _sorted_elements(max_length, spiral=False)]
    res = _pool_map(_heredity_worker, words, workers)
    return _report("q-heredity", [w for w, ok in res if not ok], len(res))


def check_lookup(max_length=12, workers=1):
    words = [format_word(w) for w in _sorted_elements(max_length)]
    res = _pool_map(_lookup_worker, words, workers)
    return _report("lookup", [w for w, ok in res if not ok], len(res))


def check_kumar(max_length=9, workers=1):
    words = [format_word(w) for w in _sorted_elements(min(max_length, 9))]
    res = _pool_map(_kumar_worker, words, workers)
    return _report("kumar-smooth-locus", [w for w, ok in res if not ok], len(res))


def check_setup_moves(max_length=8, workers=1):
    words = [format_word(w) for w in _sorted_elements(min(max_length, 8))]
    res = _pool_map(_setup_worker, words, workers)
    return _report("setup-simple-moves", [w for w, ok in res if not ok], len(res))


def check_enumerations(max_length=12, workers=1):
    failures = []
    rows = enumerate_smooth_varieties()
    total = sum(r["count"] for r in rows)
    if total != 31:
        failures.append("smooth total %d" % total)
    by_len = {}
    for r in rows:
        by_len[r["length"]] = by_len.get(r["length"], 0) + r["count"]
    if [by_len.get(i, 0) for i in range(6)] != [1, 3, 6, 9, 6, 6]:
        failures.append("per-length %r" % (by_len,))
    fam = short_edge_family()
    singular = [w for w in fam if classify_schubert(w) == "singular"]
    if len(fam) != 64:
        failures.append("family %d" % len(fam))
    if len(singular) != 33:
        failures.append("singular %d" % len(singular))
    # rationally smooth exactly per the four-case closed form
    from .qstat import is_rationally_smooth, nrs_set

    for w in _sorted_elements(max_length):
        if is_rationally_smooth(w) != (not nrs_set(w)):
            failures.append(format_word(w))
    return _report("global-enumerations", failures, 4 + len(_sorted_elements(max_length)))


def check_loci_structure(max_length=12, workers=1):
    failures = []
    checked = 0
    elements = _sorted_elements(max_length)
    for w in elements:
        if is_spiral(w):
            if length(w) >= 4 and nrs_codimension(w) != 3:
                failures.append("spiralcodim " + format_word(w))
            continue
        checked += 1
        if 6 <= length(w):
            if maximal_nrs(w) != maximal_nrs_generic(w):
                failures.append("maxnrs " + format_word(w))
        c = nrs_codimension(w)
        if c is not None:
            if length(w) >= 6:
                expect = 4 if (chamber_parity(w) == "even" and type_of(w) == 1) else 3
                if c != expect:
                    failures.append("nrscodim " + format_word(w))
            if max(attached_edge_lengths(w)) >= 6 and singular_codim(w) != 2:
                failures.append("singcodim " + format_word(w))
    # maximal singular against the multiplicity test
    from .kumar import kumar_smooth_set

    for w in _sorted_elements(min(max_length, 9)):
        checked += 1
        smooth = kumar_smooth_set(w)
        singular = [x for x in interval(w) if x not in smooth]
        generic = bruhat_maximal(singular) if singular else set()
        if maximal_singular(w) != generic:
            failures.append("maxsing " + format_word(w))
    # smooth point count and dimension bounds (spiral owners included: their
    # smooth loci come from the multiplicity test)
    witness36 = False
    for w in elements:
        checked += 1
        pts = smooth_points(w)
        if len(pts) > 36:
            failures.append("count " + format_word(w))
        if not dim_bound_check(w):
            failures.append("dimbound " + format_word(w))
        if (
            not is_spiral(w)
            and chamber_parity(w) == "even"
            and type_of(w) == 1
            and not is_twisted_spiral(w)
        ):
            hx = hexagon(w)
            if all(len(hx.edge(i)) >= 6 for i in range(6)) and len(pts) == 36:
                witness36 = True
            if length(w) >= 7:
                if min(length(x) for x in pts) != length(w) - 6:
                    failures.append("sharpness " + format_word(w))
    if max_length >= 11 and not witness36:
        failures.append("no 36-point witness")
    return _report("loci-structure", failures, checked)


def check_inversions(max_length=12, workers=1):
    words = [format_word(w) for w in _sorted_elements(max_length)]
    res = _pool_map(_inversion_worker, words, workers)
    return _report("inversion-identity", [w for w, ok in res if not ok], len(res))


CRITERIA = (
    ("hexagon", check_hexagon),
    ("spiral-hulls", check_spiral_hulls),
    ("q", check_q_equivalence),
    ("translation", check_translation_move),
    ("heredity", check_heredity),
    ("lookup", check_lookup),
    ("kumar", check_kumar),
    ("setup", check_setup_moves),
    ("enumerations", check_enumerations),
    ("loci", check_loci_structure),
    ("inversions", check_inversions),
)

SUITES = {
    "hexagon": ("hexagon", "spiral-hulls"),
    "q": ("q", "translation", "inversions"),
    "lookup": ("heredity", "lookup"),
    "kumar": ("kumar", "setup"),
    "loci": ("enumerations", "loci"),
    "all": tuple(name for name, _ in CRITERIA),
}


def run_suite(suite="all", max_length=12, workers=1):
    """Run one named verification suite; returns a list of CheckResult."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    if max_length < 0:
        raise ValueError("max_length must be non-negative, got %d" % max_length)
    wanted = SUITES[suite]
    out = []
    for name, fn in CRITERIA:
        if name in wanted:
            out.append(fn(max_length=max_length, workers=workers))
    return out

"""Smooth loci, maximal singular points, codimensions, and global censuses.

The smooth points of a non-spiral Schubert variety sit in six alcoves near
each hexagon vertex: the vertex's right-descent orbit for a type 1 owner
(a small hexagon), and for type 2 the folded paper hat built from the
vertex, its two adjacent edge alcoves, and their descent images.  A
singular spiral owner has two or three maximal singular points, each its
one reduced word with two or three letters deleted, and its smooth locus
is the rest of the interval.  The singular codimension is read off the
maximal singular points (qstat.codimension).  Everything here is
cross-checked downstream against the multiplicity test, and the
codimension against the attached-edge rule.
"""

from __future__ import annotations

from typing import NamedTuple

from .alcove import (
    E,
    SIMPLES,
    chamber_parity,
    descent_group,
    descents,
    element_from_center,
    format_word,
    format_words,
    is_spiral,
    length,
    type_of,
    word_deletions,
)
from .bruhat import hull_of, interval, leq, shell_of
from .qstat import (
    QTable,
    _walk_rows,
    codimension,
    down_closure,
    is_rationally_smooth,
    maximal_nrs,
    q_table,
)


def _edge_neighbors(hx, i):
    """The two edge alcoves adjacent to vertex i along its incident edges."""
    return element_from_center(hx.edge(i - 1)[-2]), element_from_center(hx.edge(i)[1])


def smooth_points(w):
    """All x whose point is smooth in the Schubert variety of w.

    Type 1 owners: the right-descent orbit of each hexagon vertex (six
    small hexagons).  Type 2 owners: at each vertex, the vertex, its two
    adjacent edge alcoves, and their images under the unique right descent
    (the folded paper hat).  Spiral owners: the smooth locus is open, so it
    is the interval minus the down-closure of the maximal singular points.
    """
    if is_spiral(w):
        return _spiral_smooth_points(interval(w), maximal_singular(w))
    hx = hull_of(w)
    out = set()
    if type_of(w) == 1:
        rw = descent_group(w)
        assert len(rw) == 6
        for v in hx.vertices:
            out.update(v * u for u in rw)
    else:
        s = SIMPLES[next(iter(descents(w)))]
        for i in range(6):
            v = hx.vertices[i]
            y, yp = _edge_neighbors(hx, i)
            for z in (v, y, yp):
                out.add(z)
                out.add(z * s)
    return out


def _spiral_smooth_points(members, max_sing):
    """The smooth points of a spiral owner, given its interval and its
    maximal singular points."""
    return set(members) - down_closure(members, max_sing)


def _attached_edges(w):
    """Center lists of the two hull edges attached to w, starting at w: the
    vertex ring starts at w, so they are its first edge and its last reversed."""
    h = hull_of(w)
    return [h.edge(0), h.edge(-1)[::-1]]


def attached_edge_lengths(w):
    """Alcove counts of the two hull edges attached to w."""
    return sorted(len(e) for e in _attached_edges(w))


def classify_schubert(w):
    """'smooth', 'rationally-smooth-only', or 'singular'."""
    if is_rationally_smooth(w):
        return "smooth" if length(w) <= 5 else "rationally-smooth-only"
    return "singular"


def _two_in_points(w):
    """Elements two alcoves from w along its attached edges of length >= 6."""
    out = []
    for edge in _attached_edges(w):
        if len(edge) >= 6:
            out.append(element_from_center(edge[2]))
    return out


def _spiral_maximal_singular(w):
    """The maximal singular points of a spiral w of length n >= 4.

    With a_0 ... a_{n-1} the one reduced word of w and del(P) its product
    with the positions in P deleted, they are del{0,1,2} for n = 4,
    del{0,2} for n = 5, and del{0,2} and del{1,3} for n >= 6, with
    del{0,1,n-2} also when n is even.  This closed form agrees with the
    Bruhat-maximal points outside the multiplicity test's smooth set for
    every spiral owner with n <= 24.
    """
    n = length(w)
    if n == 4:
        deleted = ({0, 1, 2},)
    elif n == 5:
        deleted = ({0, 2},)
    else:
        deleted = ({0, 2}, {1, 3}) + (({0, 1, n - 2},) if n % 2 == 0 else ())
    return word_deletions(w, deleted)


def maximal_singular(w):
    """Bruhat-maximal singular points.  Non-spiral owners: the two-in edge
    alcoves on long attached edges, plus the maximal nrs points not below
    them.  Spiral owners: two or three deletions from the reduced word
    (_spiral_maximal_singular)."""
    if classify_schubert(w) == "smooth":
        return set()
    if is_spiral(w):
        return _spiral_maximal_singular(w)
    xs = _two_in_points(w)
    out = set(xs)
    for z in maximal_nrs(w):
        if not any(leq(z, x) for x in xs):
            out.add(z)
    assert out, "singular variety with no maximal singular points: %s" % (w,)
    return out


def singular_codim(w):
    """Codimension of the singular locus, read off the maximal singular
    points, or None when smooth.  It is 2 exactly when an attached edge
    holds at least six alcoves, and the nrs codimension otherwise; the
    loci row of verify checks that rule."""
    return codimension(w, maximal_singular(w))


_DIM_BOUND_DROP = {(1, "even"): 6, (1, "odd"): 5, (2, "even"): 5, (2, "odd"): 4}


def dim_bound_check(w):
    """Every smooth point x satisfies l(x) >= l(w) - d, where d is 6 for
    spiral owners and depends on type and chamber parity otherwise."""
    pts = smooth_points(w)
    if w == E:
        return pts == {E}
    if is_spiral(w):
        drop = 6
    else:
        drop = _DIM_BOUND_DROP[(type_of(w), chamber_parity(w))]
    bound = length(w) - drop
    return all(length(x) >= bound for x in pts)


# ---------------------------------------------------------------------------
# Global censuses.

def elements_of_length_at_most(n):
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
    return seen


def _length3_pattern(w):
    return "s_i s_j s_k" if is_spiral(w) else "s_i s_j s_i"


def _length4_pattern(w):
    return "s_i s_j s_i s_k" if chamber_parity(w) == "even" else "s_k s_i s_j s_i"


_PATTERNS = {
    0: lambda w: "e",
    1: lambda w: "s_i",
    2: lambda w: "s_i s_j",
    3: _length3_pattern,
    4: _length4_pattern,
    5: lambda w: "s_i s_j s_k s_i s_k",
}


def enumerate_smooth_varieties():
    """The complete census of smooth Schubert varieties, grouped by length
    and word pattern (i, j, k denote distinct letters)."""
    groups = {}
    words = format_words(elements_of_length_at_most(5))
    for w in sorted(words, key=lambda v: (length(v), words[v])):
        if classify_schubert(w) != "smooth":
            continue
        n = length(w)
        key = (n, _PATTERNS[n](w))
        groups.setdefault(key, []).append(words[w])
    return [
        {"length": n, "pattern": pat, "count": len(ws), "members": ws}
        for (n, pat), ws in sorted(groups.items())
    ]


_CENSUS_LENGTH = 13


def short_edge_family():
    """The small-hexagon census: owners with no long attached hexagon edge.

    Non-spiral owners enter when both attached hexagon edges hold fewer
    than six alcoves; spiral owners enter up to length three, where their
    varieties are smooth.  (The six length-4 spiral hulls also have only
    short edges, but their maximal singular points are word deletions on
    the strip (_spiral_maximal_singular), so the census stays with the
    hexagon world.)
    """
    out = []
    for w in elements_of_length_at_most(_CENSUS_LENGTH):
        if is_spiral(w):
            if length(w) <= 3:
                out.append(w)
        elif max(attached_edge_lengths(w)) < 6:
            out.append(w)
    longest = max(length(w) for w in out)
    assert longest + 4 <= _CENSUS_LENGTH, "short-edge census bound too small"
    return out


# ---------------------------------------------------------------------------
# Per-owner report.

class LocusReport(NamedTuple):
    """Per-owner locus data: members[i] is the element x of records[i]."""

    owner: object
    members: list
    records: list
    summary: dict

    def to_dict(self):
        return {
            "owner": format_word(self.owner),
            "records": self.records,
            "summary": self.summary,
        }


def locus_report(w):
    """Every x <= w with its q, shell and locus memberships, and a summary.
    The q table is built once and gives the nrs set; a spiral owner's nrs
    set is the down-closure of its closed-form maximal nrs points, and its
    smooth points and both codimensions are read off the maximal points
    computed here.  Off the strips the table's walk also gives each
    member's shell, and on them the smooth points come from the table's
    interval.  A record's length is that of x's reduced word."""
    max_nrs = maximal_nrs(w)
    max_sing = maximal_singular(w)
    if is_spiral(w):
        tab = q_table(w)
        h = hull_of(w)
        shells = {x: shell_of(h, x.center()) for x in tab.entries}
        smooth = _spiral_smooth_points(tab.entries, max_sing)
    else:
        entries, shells = {}, {}
        for x, k, qt in _walk_rows(w):
            entries[x], shells[x] = qt, k
        tab = QTable(w, entries)
        smooth = smooth_points(w)
    nrs_members = tab.nrs()
    words = format_words(tab.entries)
    members = sorted(words, key=lambda x: (len(words[x]), words[x]))
    records = []
    for x in members:
        word = words[x]
        records.append(
            {
                "x": word,
                "length": len(word),
                "q": tab.q(x),
                "nrs": x in nrs_members,
                "smooth": x in smooth,
                "shell": shells[x],
                "maximal_nrs": x in max_nrs,
                "maximal_singular": x in max_sing,
            }
        )
    count = len(smooth)
    assert count <= 36
    summary = {
        "classification": classify_schubert(w),
        "nrs_codimension": codimension(w, max_nrs),
        "singular_codimension": codimension(w, max_sing),
        "smooth_point_count": count,
    }
    return LocusReport(w, members, records, summary)

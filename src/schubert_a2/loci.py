"""Smooth loci, maximal singular points, codimensions, and global censuses.

The smooth points of a non-spiral Schubert variety sit in six alcoves near
each hexagon vertex: the vertex's right-descent orbit for a type 1 owner
(a small hexagon), and for type 2 the folded paper hat built from the
vertex, its two adjacent edge alcoves, and their descent images.  Spiral
owners fall back to the multiplicity test.  Everything here is
cross-checked downstream against that test.
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
    is_spiral,
    length,
    type_of,
)
from .bruhat import centers_between, hull_of, interval, leq, shell_index
from .qstat import (
    bruhat_maximal,
    is_rationally_smooth,
    maximal_nrs,
    nrs_codimension,
    nrs_set,
    q_value,
)


def _edge_neighbors(hx, i):
    """The two edge alcoves adjacent to vertex i along its incident edges."""
    return element_from_center(hx.edge(i - 1)[-2]), element_from_center(hx.edge(i)[1])


def smooth_points(w):
    """All x whose point is smooth in the Schubert variety of w.

    Type 1 owners: the right-descent orbit of each hexagon vertex (six
    small hexagons).  Type 2 owners: at each vertex, the vertex, its two
    adjacent edge alcoves, and their images under the unique right descent
    (the folded paper hat).  Spiral owners: the multiplicity test over the
    interval.
    """
    if is_spiral(w):
        from .kumar import kumar_smooth_set

        return kumar_smooth_set(w)
    hx = hull_of(w)
    out = set()
    if type_of(w) == 1:
        rw = descent_group(w, "right")
        assert len(rw) == 6
        for v in hx.vertices:
            out.update(v * u for u in rw)
    else:
        s = SIMPLES[next(iter(descents(w, "right")))]
        for i in range(6):
            v = hx.vertices[i]
            y, yp = _edge_neighbors(hx, i)
            for z in (v, y, yp):
                out.add(z)
                out.add(z * s)
    return out


def _attached_edges(w):
    """Center lists of the two hull edges attached to w, starting at w."""
    h = hull_of(w)
    if not is_spiral(w):
        return [h.edge(0), h.edge(5)[::-1]]
    # the hull neighbours of w: v1 and v3 of a quadrilateral, the other end
    # of a chain twice, and w itself for the identity
    v = [x.center() for x in h.vertices]
    return [centers_between(v[0], v[min(1, len(v) - 1)]), centers_between(v[0], v[-1])]


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


def maximal_singular(w):
    """Bruhat-maximal singular points: the two-in edge alcoves on long
    attached edges, plus the maximal nrs points not below them."""
    if classify_schubert(w) == "smooth":
        return set()
    if is_spiral(w):
        from .kumar import kumar_smooth_set

        smooth = kumar_smooth_set(w)
        return bruhat_maximal(x for x in interval(w) if x not in smooth)
    xs = _two_in_points(w)
    out = set(xs)
    for z in maximal_nrs(w):
        if not any(leq(z, x) for x in xs):
            out.add(z)
    assert out, "singular variety with no maximal singular points: %s" % (w,)
    return out


def singular_codim(w):
    """Codimension of the singular locus: None when smooth, 2 when an
    attached edge holds at least six alcoves, else the nrs codimension."""
    if classify_schubert(w) == "smooth":
        return None
    if max(attached_edge_lengths(w)) >= 6:
        return 2
    c = nrs_codimension(w)
    assert c is not None
    return c


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
    for w in sorted(elements_of_length_at_most(5), key=lambda v: (length(v), format_word(v))):
        if classify_schubert(w) != "smooth":
            continue
        n = length(w)
        key = (n, _PATTERNS[n](w))
        groups.setdefault(key, []).append(format_word(w))
    return [
        {"length": n, "pattern": pat, "count": len(ws), "members": ws}
        for (n, pat), ws in sorted(groups.items())
    ]


def short_edge_family(max_length=13):
    """The small-hexagon census: owners with no long attached hexagon edge.

    Non-spiral owners enter when both attached hexagon edges hold fewer
    than six alcoves; spiral owners enter up to length three, where their
    varieties are smooth.  (The six length-4 spiral hulls also have only
    short edges, but their singular structure lives on the strip and is
    handled by singular_codim directly, so the census stays with the
    hexagon world.)
    """
    out = []
    for w in elements_of_length_at_most(max_length):
        if is_spiral(w):
            if length(w) <= 3:
                out.append(w)
        elif max(attached_edge_lengths(w)) < 6:
            out.append(w)
    longest = max(length(w) for w in out)
    assert longest + 4 <= max_length, "short-edge census bound too small"
    return out


# ---------------------------------------------------------------------------
# Per-owner report.

class LocusReport(NamedTuple):
    owner: object
    records: list
    summary: dict

    def to_dict(self):
        return {
            "owner": format_word(self.owner),
            "records": self.records,
            "summary": self.summary,
        }


def locus_report(w):
    members = sorted(interval(w), key=lambda x: (length(x), format_word(x)))
    smooth = smooth_points(w)
    nrs_members = nrs_set(w)
    max_nrs = maximal_nrs(w)
    max_sing = maximal_singular(w)
    h = hull_of(w)
    records = []
    for x in members:
        records.append(
            {
                "x": format_word(x),
                "length": length(x),
                "q": q_value(w, x),
                "nrs": x in nrs_members,
                "smooth": x in smooth,
                "shell": shell_index(h, x),
                "maximal_nrs": x in max_nrs,
                "maximal_singular": x in max_sing,
            }
        )
    count = len(smooth)
    assert count <= 36
    summary = {
        "classification": classify_schubert(w),
        "nrs_codimension": nrs_codimension(w),
        "singular_codimension": singular_codim(w),
        "smooth_point_count": count,
    }
    return LocusReport(w, records, summary)

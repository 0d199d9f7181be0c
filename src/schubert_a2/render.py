"""Deterministic SVG rendering of alcove pictures.

Draws the triangular alcove lattice with the a2 direction vertical, at 40
units per alcove edge, and overlays any subset of layers: fundamental
strips, a hull outline, shells, a q-value heatmap, smooth and nrs shading,
special segments, and diagonals.  Output is plain SVG 1.1 with no external
references.  The output depends only on the spec and the payload:
identical inputs produce identical bytes.

The lattice is scanned row by row: a row p1 with p1 mod 3 nonzero holds the
centers with p2 = p1 mod 3.  Each alcove's corners are built once as integer
keys (2a + b, b) of the scaled corner (a, b): pixel x depends on 2a + b
alone and grows with it, pixel y depends on b alone and falls as b grows.
So the viewBox comes from the extreme keys, and each distinct x and y is
formatted once per call, with the same float expressions as _xy, so the
bytes are those of formatting every corner on its own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .alcove import POSITIVE_ROOTS, element_from_center, format_words
from .bruhat import Hull, diagonal_centers, hull_of, line_meet, special_segments
from .loci import LocusReport
from .qstat import QTable

LAYERS = (
    "lattice",
    "chambers",
    "hexagon",
    "shells",
    "q-heatmap",
    "smooth",
    "special-segments",
    "diagonals",
)
LABELS = ("none", "q-values", "words")

EDGE = 40  # pixels per alcove edge
_SQRT3 = math.sqrt(3.0)

DEFAULT_COLORS = {
    "lattice": "#cccccc",
    "strip": "#888888",
    "hexagon": "#000000",
    "shell": "#7a5cc4",
    "special": "#9400d3",
    "diagonal": "#555555",
    "smooth": "#b0b0b0",
    "nrs": "#f4a9a9",
    "label": "#202020",
    "heat": ["#ffffcc", "#a1dab4", "#41b6c4", "#2c7fb8", "#253494", "#0c1a4d"],
}


class RenderSpec(NamedTuple):
    """What to draw: layers and label mode; the viewport fits the owner."""

    layers: tuple = ("lattice", "hexagon")
    labels: str = "none"  # one of LABELS


def validate_spec(spec):
    """Raise ValueError unless every layer is in LAYERS and the label mode
    is in LABELS."""
    for layer in spec.layers:
        if layer not in LAYERS:
            raise ValueError("unknown layer %r" % (layer,))
    if spec.labels not in LABELS:
        raise ValueError("unknown label mode %r" % (spec.labels,))


def _px(key):
    """Pixel x of a scaled point (a, b) with key 2a + b: increasing in key."""
    return EDGE * key / 6.0


def _py(b):
    """Pixel y of a scaled point (a, b) (y grows downward): decreasing in b."""
    return -EDGE * _SQRT3 / 6.0 * b


def _xy(point):
    """Pixel position of a scaled coordinate pair."""
    return _px(2 * point[0] + point[1]), _py(point[1])


def _fmt(v):
    return "%.2f" % (v + 0.0)


def _corner_keys(center):
    """The (2a + b, b) keys of the corners (a, b) of a center's alcove."""
    p1, p2 = center
    k = 2 * p1 + p2
    if p1 % 3 == 1:  # up
        return ((k - 3, p2 - 1), (k, p2 + 2), (k + 3, p2 - 1))
    return ((k + 3, p2 + 1), (k, p2 - 2), (k - 3, p2 + 1))


def _coords(points):
    return " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in points)


def _polygon(coords, fill="none", stroke="none", width=1.0, dash=None):
    """A polygon element; coords is its formatted "x,y x,y ..." list."""
    extra = ' stroke-dasharray="6,4"' if dash else ""
    return (
        '<polygon points="%s" fill="%s" stroke="%s" stroke-width="%s"%s/>'
        % (coords, fill, stroke, _fmt(width), extra)
    )


def _line(a, b, stroke, width=1.0, dash=None):
    extra = ' stroke-dasharray="6,4"' if dash else ""
    return '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"%s/>' % (
        _fmt(a[0]), _fmt(a[1]), _fmt(b[0]), _fmt(b[1]), stroke, _fmt(width), extra
    )


def _payload_owner(payload):
    if isinstance(payload, (Hull, QTable, LocusReport)):
        return payload.owner
    raise TypeError("unsupported payload %r" % (payload,))


def _auto_viewport(owner):
    cs = [v.center() for v in hull_of(owner).vertices] + [(1, 1)]
    p1s = [c[0] for c in cs]
    p2s = [c[1] for c in cs]
    return (min(p1s) - 4, min(p2s) - 4, max(p1s) + 4, max(p2s) + 4)


def _centers_in_viewport(vp):
    """The centers of the viewport box, row by row: a row p1 with p1 mod 3
    nonzero holds the p2 with p2 = p1 mod 3, every third integer."""
    p1min, p2min, p1max, p2max = vp
    return [
        (p1, p2)
        for p1 in range(p1min, p1max + 1)
        if p1 % 3
        for p2 in range(p2min + (p1 - p2min) % 3, p2max + 1, 3)
    ]


def render(spec, payload):
    """Render a Hull, QTable, or LocusReport to an SVG document string; a
    spec that validate_spec rejects is a ValueError."""
    validate_spec(spec)
    owner = _payload_owner(payload)
    vp = _auto_viewport(owner)
    centers = _centers_in_viewport(vp)
    cells = [_corner_keys(c) for c in centers]
    keys = {k for cell in cells for k, _ in cell}
    bs = {b for cell in cells for _, b in cell}
    x0, y0 = _px(min(keys)) - 10, _py(max(bs)) - 10
    width, height = _px(max(keys)) - x0 + 10, _py(min(bs)) - y0 + 10

    body = []
    layers = set(spec.layers)

    qs = {}  # center -> q, read by the heatmap and the q-value labels
    if isinstance(payload, QTable) and ("q-heatmap" in layers or spec.labels == "q-values"):
        qs = {x.center(): q for x, (q, _tag) in payload.entries.items()}
    fills = {}
    if "q-heatmap" in layers:
        heat = DEFAULT_COLORS["heat"]
        fills = {c: heat[min(q, len(heat) - 1)] for c, q in qs.items()}
    if isinstance(payload, LocusReport) and "smooth" in layers:
        for x, rec in zip(payload.members, payload.records):
            if rec["smooth"]:
                fills[x.center()] = DEFAULT_COLORS["smooth"]
            elif rec["nrs"]:
                fills[x.center()] = DEFAULT_COLORS["nrs"]
    stroke = DEFAULT_COLORS["lattice"] if "lattice" in layers else "none"
    xstr = {k: _fmt(_px(k)) for k in keys}
    ystr = {b: _fmt(_py(b)) for b in bs}
    for c, cell in zip(centers, cells):
        fill = fills.get(c, "none")
        if fill == "none" and stroke == "none":
            continue
        coords = " ".join(xstr[k] + "," + ystr[b] for k, b in cell)
        body.append(_polygon(coords, fill=fill, stroke=stroke))

    if "chambers" in layers:
        # fundamental strip boundaries: the lines (d, v) = 0 and 1
        for d in POSITIVE_ROOTS:
            for level in (0, 3):
                pts = _strip_line_points(d, level, vp)
                if pts:
                    body.append(_line(pts[0], pts[1], DEFAULT_COLORS["strip"], 2.0))

    hull = hull_of(owner)
    if "hexagon" in layers and len(hull.vertices) > 1:
        ring = [_xy(v.center()) for v in hull.vertices]
        body.append(_polygon(_coords(ring), stroke=DEFAULT_COLORS["hexagon"], width=2.5))

    if "shells" in layers:
        k = 1
        while True:
            ring = _shell_ring(hull, k)
            if ring is None:
                break
            body.append(
                _polygon(_coords(ring), stroke=DEFAULT_COLORS["shell"], width=1.2, dash=True)
            )
            k += 1

    if "diagonals" in layers and hull.hyperplanes:
        for i in range(6):
            pts = diagonal_centers(hull, i)
            if len(pts) >= 2:
                body.append(
                    _line(_xy(pts[0]), _xy(pts[-1]), DEFAULT_COLORS["diagonal"], 1.0, dash=True)
                )
    if "special-segments" in layers:
        for seg in special_segments(hull):
            if seg:
                body.append(_line(_xy(seg[0]), _xy(seg[-1]), DEFAULT_COLORS["special"], 4.0))

    labels = {}
    if spec.labels == "q-values":
        labels = {c: str(q) for c, q in qs.items()}
    elif spec.labels == "words":
        xs = [element_from_center(c) for c in centers]
        words = format_words(xs)
        labels = {c: words[x] or "e" for c, x in zip(centers, xs) if len(words[x]) <= 6}
    for c in centers:
        text = labels.get(c)
        if text is None:
            continue
        px, py = _xy(c)
        body.append(
            '<text x="%s" y="%s" font-size="9" text-anchor="middle" fill="%s">%s</text>'
            % (_fmt(px), _fmt(py + 3), DEFAULT_COLORS["label"], text)
        )

    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="%s %s %s %s" width="%s" height="%s">\n'
        % (_fmt(x0), _fmt(y0), _fmt(width), _fmt(height), _fmt(width), _fmt(height))
        + "\n".join(body)
        + "\n</svg>\n"
    )


def _strip_line_points(d, scaled_level, vp):
    """Endpoints of the line (d, v)*3 = scaled_level clipped to the viewport."""
    p1min, p2min, p1max, p2max = vp
    pts = []
    if d == (0, 1):
        if p2min <= scaled_level <= p2max:
            pts = [(p1min, scaled_level), (p1max, scaled_level)]
    elif d == (1, 0):
        if p1min <= scaled_level <= p1max:
            pts = [(scaled_level, p2min), (scaled_level, p2max)]
    else:
        # p1 + p2 = scaled_level
        cands = []
        for p1 in (p1min, p1max):
            p2 = scaled_level - p1
            if p2min <= p2 <= p2max:
                cands.append((p1, p2))
        for p2 in (p2min, p2max):
            p1 = scaled_level - p2
            if p1min < p1 < p1max:
                cands.append((p1, p2))
        pts = sorted(set(cands))[:2] if len(set(cands)) >= 2 else []
    return [_xy(p) for p in pts]


_EDGE_ORDER = (
    ((0, 1), "hi"),  # E
    ((1, 0), "hi"),  # NE
    ((1, 1), "lo"),  # NW
    ((0, 1), "lo"),  # W
    ((1, 0), "lo"),  # SW
    ((1, 1), "hi"),  # SE
)


def _shell_ring(hull, k):
    """Corner pixels of the k-shell boundary polygon, or None when empty."""
    lines = []
    for d, side in _EDGE_ORDER:
        lo, hi = hull.bounds[POSITIVE_ROOTS.index(d)]
        value = (lo + 3 * k) if side == "lo" else (hi - 3 * k)
        lines.append((d, value))
    for d, (lo, hi) in zip(POSITIVE_ROOTS, hull.bounds):
        if lo + 3 * k > hi - 3 * k:
            return None
    ring = []
    for i in range(6):
        p3 = line_meet(*lines[i], *lines[(i + 1) % 6])
        ring.append(_xy((p3[0] / 3, p3[1] / 3)))
    return ring

"""Deterministic SVG rendering of alcove pictures.

Draws the triangular alcove lattice with the a2 direction vertical, at 40
units per alcove edge, and overlays any subset of layers: fundamental
strips, a hull outline, shells, a q-value heatmap, smooth and nrs shading,
special segments, and diagonals.  Output is plain SVG 1.1 with no external
references; identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from typing import NamedTuple

from .alcove import POSITIVE_ROOTS, display_word, is_spiral, orientation
from .bruhat import Hexagon, diagonal_centers, hull_of, line_meet, special_segments
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


def _colors():
    colors = dict(DEFAULT_COLORS)
    path = os.environ.get("SCHUBERT_A2_CONFIG")
    if path:
        with open(path) as fh:
            colors.update(json.load(fh))
    return colors


class RenderSpec(NamedTuple):
    """What to draw: viewport in scaled coordinates, layers, label mode."""

    viewport: tuple = None  # (p1min, p2min, p1max, p2max) or None for auto
    layers: tuple = ("lattice", "hexagon")
    labels: str = "none"  # "none" | "q-values" | "words"


def _xy(point):
    """Pixel position of a scaled coordinate pair (y grows downward)."""
    x = EDGE * (2 * point[0] + point[1]) / 6.0
    y = -EDGE * _SQRT3 / 6.0 * point[1]
    return x, y


def _fmt(v):
    return "%.2f" % (v + 0.0)


def _corner_points(center):
    if orientation(center) == "up":
        offs = ((-1, -1), (-1, 2), (2, -1))
    else:
        offs = ((1, 1), (1, -2), (-2, 1))
    return [(center[0] + dx, center[1] + dy) for dx, dy in offs]


def _polygon(points, fill="none", stroke="none", width=1.0, dash=None):
    coords = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in points)
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
    if isinstance(payload, Hexagon):
        return payload.owner
    if isinstance(payload, (QTable, LocusReport)):
        return payload.owner
    raise TypeError("unsupported payload %r" % (payload,))


def _auto_viewport(owner):
    cs = [v.center() for v in hull_of(owner).vertices] + [(1, 1)]
    p1s = [c[0] for c in cs]
    p2s = [c[1] for c in cs]
    return (min(p1s) - 4, min(p2s) - 4, max(p1s) + 4, max(p2s) + 4)


def _centers_in_viewport(vp):
    p1min, p2min, p1max, p2max = vp
    out = []
    for p1 in range(p1min, p1max + 1):
        for p2 in range(p2min, p2max + 1):
            r = p1 % 3
            if r != 0 and p2 % 3 == r:
                out.append((p1, p2))
    return out


def render(spec, payload):
    """Render a Hexagon, QTable, or LocusReport to an SVG document string."""
    owner = _payload_owner(payload)
    colors = _colors()
    vp = spec.viewport or _auto_viewport(owner)
    if vp[0] >= vp[2] or vp[1] >= vp[3]:
        raise ValueError("empty viewport %r" % (vp,))
    centers = _centers_in_viewport(vp)
    corners = [xy for c in centers for xy in (_xy(p) for p in _corner_points(c))]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    x0, y0 = min(xs) - 10, min(ys) - 10
    width, height = max(xs) - x0 + 10, max(ys) - y0 + 10

    body = []
    layers = set(spec.layers)

    fills = {}
    if "q-heatmap" in layers and isinstance(payload, QTable):
        heat = colors["heat"]
        for x, (q, _tag) in payload.entries.items():
            fills[x.center()] = heat[min(q, len(heat) - 1)]
    if isinstance(payload, LocusReport):
        by_word = {r["x"]: r for r in payload.records}
        from .alcove import parse_word

        for word, rec in by_word.items():
            c = parse_word(word).center()
            if "smooth" in layers and rec["smooth"]:
                fills[c] = colors["smooth"]
            elif "smooth" in layers and rec["nrs"]:
                fills[c] = colors["nrs"]

    for c in centers:
        fill = fills.get(c, "none")
        stroke = colors["lattice"] if "lattice" in layers else "none"
        if fill == "none" and stroke == "none":
            continue
        body.append(
            _polygon([_xy(p) for p in _corner_points(c)], fill=fill, stroke=stroke)
        )

    if "chambers" in layers:
        # fundamental strip boundaries: the lines (d, v) = 0 and 1
        for d in POSITIVE_ROOTS:
            for level in (0, 3):
                pts = _strip_line_points(d, level, vp)
                if pts:
                    body.append(_line(pts[0], pts[1], colors["strip"], 2.0))

    hull = hull_of(owner)
    if "hexagon" in layers and len(hull.vertices) > 1:
        ring = [_xy(v.center()) for v in hull.vertices]
        body.append(_polygon(ring, stroke=colors["hexagon"], width=2.5))

    if "shells" in layers:
        k = 1
        while True:
            ring = _shell_ring(hull, k)
            if ring is None:
                break
            body.append(_polygon(ring, stroke=colors["shell"], width=1.2, dash=True))
            k += 1

    if not is_spiral(owner) and ("special-segments" in layers or "diagonals" in layers):
        hx = hull_of(owner)
        if "diagonals" in layers:
            for i in range(6):
                pts = diagonal_centers(hx, i)
                if len(pts) >= 2:
                    body.append(
                        _line(_xy(pts[0]), _xy(pts[-1]), colors["diagonal"], 1.0, dash=True)
                    )
        if "special-segments" in layers:
            for seg in special_segments(hx):
                if seg:
                    body.append(
                        _line(_xy(seg[0]), _xy(seg[-1]), colors["special"], 4.0)
                    )

    if spec.labels != "none":
        qmap = payload.entries if isinstance(payload, QTable) else None
        for c in centers:
            if spec.labels == "q-values":
                if qmap is None:
                    break
                from .alcove import element_from_center

                x = element_from_center(c)
                if x not in qmap:
                    continue
                text = str(qmap[x][0])
            else:
                from .alcove import element_from_center

                text = display_word(element_from_center(c))
                if len(text) > 6:
                    continue
            px, py = _xy(c)
            body.append(
                '<text x="%s" y="%s" font-size="9" text-anchor="middle" fill="%s">%s</text>'
                % (_fmt(px), _fmt(py + 3), colors["label"], text)
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

"""SVG output, with fan-in / fan-out segments in fans-only mode.

Edges are drawn as polylines through their control points (endpoints
included), each stroked with its assigned color. The fans-only mode
grays out edge bodies and colors only the segments a fan mark holds,
where an edge enters or leaves a bundle, plus its endpoints.
"""

from __future__ import annotations

import numpy as np

from .model import GraphLayout

_GRAY = (0.7, 0.7, 0.7)
_STROKE_WIDTH = 1.5
_OPACITY = 0.85


def _hex(rgb) -> str:
    r, g, b = (max(0, min(255, round(float(c) * 255))) for c in rgb)
    return f"#{r:02x}{g:02x}{b:02x}"


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _texts(xy: np.ndarray) -> list[str]:
    """Each row of an (n, 2) array as "x y" text."""
    # Column by column: `xy.tolist()` would make n small lists for the
    # garbage collector to track.
    return [f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xy[:, 0].tolist(), xy[:, 1].tolist())]


def _polyline(coords, stroke: str, width, opacity) -> str:
    """A path through `coords`, "x y" texts in order, stroked in hex color `stroke`."""
    d = "M " + " L ".join(coords)
    return (
        f'<path d="{d}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_fmt(width)}" stroke-opacity="{_fmt(opacity)}" '
        f'stroke-linecap="round" stroke-linejoin="round"/>'
    )


def _curves(layout: GraphLayout, pts: list[str]) -> list[list[str]]:
    """Per edge, the "x y" texts of v1, its control points and v2; `pts`
    holds those of `layout.points`."""
    o = layout.offsets.tolist()
    v1, v2 = _texts(layout.ends[:, 0]), _texts(layout.ends[:, 1])
    return [[v1[i], *pts[o[i] : o[i + 1]], v2[i]] for i in range(layout.m)]


def _fan_elements(layout, pts, colors, fans: np.ndarray) -> list[str]:
    gray = _hex(_GRAY)
    parts = [_polyline(c, gray, _STROKE_WIDTH, _OPACITY) for c in _curves(layout, pts)]
    # The marked controls in order, edge i's at bounds[i]:bounds[i + 1]; the
    # segment marked at control p joins controls p and p + 1.
    marked = np.flatnonzero(fans)
    bounds = np.searchsorted(marked, layout.offsets).tolist()
    marked = marked.tolist()
    radius = _fmt(_STROKE_WIDTH * 1.5)
    for i, ends in enumerate(layout.ends.tolist()):
        color = _hex(colors[i])
        for p in marked[bounds[i] : bounds[i + 1]]:
            parts.append(_polyline(pts[p : p + 2], color, _STROKE_WIDTH * 1.5, 1.0))
        for x, y in ends:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{radius}" fill="{color}"/>')
    return parts


def render_svg(layout: GraphLayout, colors, fans: np.ndarray | None = None) -> str:
    """Deterministic SVG document; one path per edge in id order.

    With `fans`, a per-control bool mark of where edges enter or leave a
    bundle (`BundleWeightMatrix.fans`), edge bodies are gray and only those
    segments are colored, plus the endpoints.
    """
    colors = np.asarray(colors, dtype=float)
    if colors.shape != (layout.m, 3):
        raise ValueError(f"expected {layout.m} RGB triples, got shape {colors.shape}")
    if fans is not None and len(fans) != len(layout.points):
        raise ValueError(f"fans has {len(fans)} marks for {len(layout.points)} controls")

    min_x, min_y, max_x, max_y = layout.extent
    w, h = max_x - min_x, max_y - min_y
    pad = 0.05 * max(w, h, 1.0)
    view = (min_x - pad, min_y - pad, w + 2 * pad, h + 2 * pad)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(view[0])} {_fmt(view[1])} {_fmt(view[2])} {_fmt(view[3])}">',
    ]
    pts = _texts(layout.points)
    if fans is not None:
        parts += _fan_elements(layout, pts, colors, fans)
    else:
        parts += [
            _polyline(c, _hex(color), _STROKE_WIDTH, _OPACITY)
            for c, color in zip(_curves(layout, pts), colors)
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""SVG output, with fan-in / fan-out segments in fans-only mode.

Edges are drawn as polylines through their control points (endpoints
included), each stroked with its assigned color. The fans-only mode
grays out edge bodies and colors only the segments where an edge enters
or leaves a bundle, plus its endpoints.
"""

from __future__ import annotations

import numpy as np

from .bundling import BundleWeightMatrix
from .model import GraphLayout, layout_extent

_GRAY = (0.7, 0.7, 0.7)
_STROKE_WIDTH = 1.5
_OPACITY = 0.85


def _fans(start, end, c_i):
    """Fan-in and fan-out segment of runs (start, end) on edges with c_i
    controls; -1 where the run touches that end of the edge."""
    return np.where(start > 0, start - 1, -1), np.where(end < c_i - 1, end, -1)


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


def _polyline(coords, color, width, opacity) -> str:
    """A path through `coords`, "x y" texts in order."""
    d = "M " + " L ".join(coords)
    return (
        f'<path d="{d}" fill="none" stroke="{_hex(color)}" '
        f'stroke-width="{_fmt(width)}" stroke-opacity="{_fmt(opacity)}" '
        f'stroke-linecap="round" stroke-linejoin="round"/>'
    )


def _curves(layout: GraphLayout) -> list[list[str]]:
    """Per edge, the "x y" texts of v1, its control points and v2."""
    pts, o = _texts(layout.points), layout.offsets.tolist()
    v1, v2 = _texts(layout.ends[:, 0]), _texts(layout.ends[:, 1])
    return [[v1[i], *pts[o[i] : o[i + 1]], v2[i]] for i in range(layout.m)]


def _fan_elements(layout, colors, fans: BundleWeightMatrix) -> list[str]:
    ii = np.nonzero(fans.bundled_flag)[0]
    counts = np.diff(layout.offsets)
    fan_in, fan_out = _fans(fans.runs[:, 0], fans.runs[:, 1], counts[ii])
    edge = np.concatenate([ii, ii])
    seg = np.concatenate([fan_in, fan_out])
    width = counts.max()
    fan_edge, fan_seg = np.divmod(np.unique(edge[seg >= 0] * width + seg[seg >= 0]), width)
    bounds = np.searchsorted(fan_edge, np.arange(layout.m + 1))
    curves = _curves(layout)
    parts = [_polyline(c, _GRAY, _STROKE_WIDTH, _OPACITY) for c in curves]
    radius = _fmt(_STROKE_WIDTH * 1.5)
    for i, (curve, ends) in enumerate(zip(curves, layout.ends.tolist())):
        color = colors[i]
        # Segment s joins control points s and s + 1, after v1 in the curve.
        for s in fan_seg[bounds[i] : bounds[i + 1]]:
            parts.append(_polyline(curve[s + 1 : s + 3], color, _STROKE_WIDTH * 1.5, 1.0))
        for x, y in ends:
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{radius}" fill="{_hex(color)}"/>'
            )
    return parts


def render_svg(
    layout: GraphLayout, colors, fans: BundleWeightMatrix | None = None
) -> str:
    """Deterministic SVG document; one path per edge in id order.

    With `fans`, detection's flags and runs, edge bodies are gray and only
    the segments where edges enter or leave a bundle are colored, plus
    the endpoints.
    """
    colors = np.asarray(colors, dtype=float)
    if colors.shape != (layout.m, 3):
        raise ValueError(f"expected {layout.m} RGB triples, got shape {colors.shape}")

    min_x, min_y, max_x, max_y = layout.extent
    w, h = layout_extent(layout)
    pad = 0.05 * max(w, h, 1.0)
    view = (min_x - pad, min_y - pad, w + 2 * pad, h + 2 * pad)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(view[0])} {_fmt(view[1])} {_fmt(view[2])} {_fmt(view[3])}">',
    ]
    if fans is not None:
        parts += _fan_elements(layout, colors, fans)
    else:
        parts += [
            _polyline(c, color, _STROKE_WIDTH, _OPACITY)
            for c, color in zip(_curves(layout), colors)
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

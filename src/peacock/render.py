"""SVG output and fan-in / fan-out segment identification.

Edges are drawn as polylines through their control points (endpoints
included), each stroked with its assigned color. The fans-only mode
grays out edge bodies and colors only the segments where an edge enters
or leaves a bundle, plus its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundling import BundleWeightMatrix, first_run
from .model import EdgeCurve, GraphLayout, layout_extent

_GRAY = (0.7, 0.7, 0.7)
_STROKE_WIDTH = 1.5
_OPACITY = 0.85


@dataclass(frozen=True)
class FanSegments:
    """Segment indices of edge i around its bundled run against edge j.

    Segment s joins control points s and s+1. `fan_in` is the segment
    ending at the run's first control point (absent when the run starts
    at the first control), `fan_out` the segment starting at the run's
    last control point (absent when the run reaches the end).
    """

    fan_in: int | None
    fan_out: int | None
    run_start: int
    run_end: int


def _fans(start, end, c_i):
    """Fan-in and fan-out segment of runs (start, end) on edges with c_i
    controls; -1 where the run touches that end of the edge."""
    return np.where(start > 0, start - 1, -1), np.where(end < c_i - 1, end, -1)


def find_fan_segments(
    edge_i: EdgeCurve, edge_j: EdgeCurve, t: float, k_ij: int
) -> FanSegments:
    """Fan segments for the earliest qualifying run, extended maximally."""
    run = first_run(edge_i, edge_j, t, k_ij)
    if run is None:
        raise ValueError(
            f"edges {edge_i.id} and {edge_j.id} are not bundled at t={t}, k={k_ij}"
        )
    fan_in, fan_out = (int(s) for s in _fans(run[0], run[1], edge_i.n_controls))
    return FanSegments(
        fan_in=fan_in if fan_in >= 0 else None,
        fan_out=fan_out if fan_out >= 0 else None,
        run_start=run[0],
        run_end=run[1],
    )


def _hex(rgb) -> str:
    r, g, b = (max(0, min(255, round(float(c) * 255))) for c in rgb)
    return f"#{r:02x}{g:02x}{b:02x}"


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _edge_points(e: EdgeCurve) -> list[tuple[float, float]]:
    pts = [(e.v1.x, e.v1.y)]
    pts += [(p.x, p.y) for p in e.controls]
    pts.append((e.v2.x, e.v2.y))
    return pts


def _polyline(points, color, width, opacity) -> str:
    d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points)
    return (
        f'<path d="{d}" fill="none" stroke="{_hex(color)}" '
        f'stroke-width="{_fmt(width)}" stroke-opacity="{_fmt(opacity)}" '
        f'stroke-linecap="round" stroke-linejoin="round"/>'
    )


def _fan_elements(layout, colors, fans: BundleWeightMatrix) -> list[str]:
    parts = []
    ii = np.nonzero(fans.bundled_flag)[0]
    counts = np.diff(layout.offsets)
    fan_in, fan_out = _fans(fans.runs[:, 0], fans.runs[:, 1], counts[ii])
    edge = np.concatenate([ii, ii])
    seg = np.concatenate([fan_in, fan_out])
    width = counts.max()
    fan_edge, fan_seg = np.divmod(np.unique(edge[seg >= 0] * width + seg[seg >= 0]), width)
    bounds = np.searchsorted(fan_edge, np.arange(layout.m + 1))
    for e in layout.edges:
        parts.append(_polyline(_edge_points(e), _GRAY, _STROKE_WIDTH, _OPACITY))
    for e in layout.edges:
        color = colors[e.id]
        cpts = [(p.x, p.y) for p in e.controls]
        for s in fan_seg[bounds[e.id] : bounds[e.id + 1]]:
            parts.append(_polyline(cpts[s : s + 2], color, _STROKE_WIDTH * 1.5, 1.0))
        for p in (e.v1, e.v2):
            parts.append(
                f'<circle cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" '
                f'r="{_fmt(_STROKE_WIDTH * 1.5)}" fill="{_hex(color)}"/>'
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
        for e in layout.edges:
            parts.append(_polyline(_edge_points(e), colors[e.id], _STROKE_WIDTH, _OPACITY))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

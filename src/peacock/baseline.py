"""Baseline coloring: endpoint positions encoded straight into channels.

Each edge gets (min of endpoint x, 0, min of endpoint y) as an
unnormalized color, then the whole matrix is min-max normalized per
channel into [0, 1]. No optimization involved; this is the comparison
point for the optimized coloring.
"""

from __future__ import annotations

import numpy as np

from .coloring import ColorTable
from .model import GraphLayout


def baseline_colors(layout: GraphLayout) -> ColorTable:
    v1, v2 = layout.ends[:, 0], layout.ends[:, 1]
    raw = np.zeros((layout.m, 3))
    # The smaller endpoint coordinate, v1's on a tie (as Python's min takes
    # it), so a -0.0 against 0.0 keeps its sign.
    raw[:, [0, 2]] = np.where(v2 < v1, v2, v1)

    lo = raw.min(axis=0)
    span = raw.max(axis=0) - lo
    col = np.full_like(raw, 0.5)
    np.divide(raw - lo, span, out=col, where=span > 0)
    return ColorTable(m=layout.m, q=3, col=col)

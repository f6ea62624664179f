"""Pairwise bundling detection and the weight matrix.

Two edges count as bundled (directionally, i against j) when some run of
consecutive control points of edge i all lie within a distance threshold
of edge j's control points. The weight matrix holds 1 for bundled
ordered pairs and a small user tradeoff weight for everything else; it
is kept as the list of bundled pairs plus that weight.

Detection is one array pass over all control points of the layout: a
uniform grid yields the point pairs within the threshold, and sorting
the resulting (partner edge, control) pairs yields every maximal run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GraphLayout, layout_extent

# Peak bytes per M x M entry of a run, apart from the optimizer's
# per-component blocks (see coloring.INVERSE_BYTES_PER_PAIR). Measured as
# peak RSS above the interpreter's, q = 3: 51.3 B at M = 2000 on a crossing
# layout with every pair flagged, where detection's per-pair arrays set the
# peak and no later stage goes higher (the weight matrix keeps 24 B per
# flagged pair); a chain of M = 2000 edges, each bundled with its
# neighbours only, holds 9 B after the dissimilarities.
DENSE_BYTES_PER_PAIR = 56

# Half of an 8 GB machine, leaving the rest to the interpreter, the OS and
# other processes.
DENSE_BUDGET = 4 * 2**30

# Largest M whose dense dissimilarities and flagged pairs fit in
# DENSE_BUDGET.
MAX_DENSE_EDGES = math.isqrt(DENSE_BUDGET // DENSE_BYTES_PER_PAIR)

# Candidate point pairs examined per batch. Batches hold whole edges, so
# transient memory is bounded by this budget or by one edge's candidates.
# Later stages read the flagged pairs in batches of the same size.
PAIR_BUDGET = 1 << 16


class ParameterError(ValueError):
    """Invalid detection or tradeoff parameter."""


@dataclass(frozen=True)
class DetectionParams:
    """Detection threshold, run-length fraction and tradeoff weight.

    Exactly one of `t_abs` (absolute distance) and `t_frac` (fraction of
    the larger layout dimension) must be given.
    """

    t_abs: float | None = None
    t_frac: float | None = 0.03
    k_min: float = 0.4
    epsilon: float = 0.001

    def __post_init__(self):
        if (self.t_abs is None) == (self.t_frac is None):
            raise ParameterError("exactly one of t_abs / t_frac must be set")
        if self.t_abs is not None and not self.t_abs > 0:
            raise ParameterError(f"t_abs must be > 0, got {self.t_abs}")
        if self.t_frac is not None and not 0 < self.t_frac <= 1:
            raise ParameterError(f"t_frac must be in (0, 1], got {self.t_frac}")
        if not 0 < self.k_min <= 1:
            raise ParameterError(f"k_min must be in (0, 1], got {self.k_min}")
        if not 0 <= self.epsilon <= 1:
            raise ParameterError(f"epsilon must be in [0, 1], got {self.epsilon}")

    def resolve_t(self, layout: GraphLayout) -> float:
        """The absolute distance threshold for this layout."""
        if self.t_abs is not None:
            return self.t_abs
        w, h = layout_extent(layout)
        t = self.t_frac * max(w, h)
        if t <= 0:
            raise ParameterError(
                "layout has zero extent; a fractional threshold resolves to 0 "
                "(pass an absolute threshold instead)"
            )
        return t


@dataclass(frozen=True)
class BundleWeightMatrix:
    """Detection outcome plus the tradeoff weight, one entry per flagged pair.

    `pairs` holds the flagged ordered pairs (i, j), edge i bundled against
    edge j, as ascending codes i * M + j; flags may be one-way. The weight
    of an ordered pair is 1 where flagged and `epsilon` elsewhere (0 on the
    diagonal), so no M x M matrix is kept. Row n of `runs` is the
    (start, end) control index of the first maximal qualifying run of
    pair n.
    """

    m: int
    epsilon: float
    pairs: np.ndarray
    runs: np.ndarray

    def __post_init__(self):
        if self.pairs.ndim != 1 or self.runs.shape != (len(self.pairs), 2):
            raise ValueError("runs must hold one (start, end) row per flagged pair")
        self.pairs.setflags(write=False)
        self.runs.setflags(write=False)

    @property
    def bundled_pair_count(self) -> int:
        return len(self.pairs)


def required_run_length(c_i, c_j, k_min: float):
    """Run length required for c_i and c_j control points (scalars or arrays)."""
    return np.maximum(1, np.floor(np.maximum(c_i, c_j) * k_min).astype(np.int64))


def _grid(points: np.ndarray, t: float):
    """Bucket points into square cells and find each cell's 3x3 neighbourhood.

    Returns the points in cell order, each point's cell, and per cell the
    start and size, in that order, of its nine neighbour cells (size 0
    where a neighbour holds no point).
    """
    # The margin over t absorbs the rounding of (x - origin) / cell, so
    # two points passing the exact distance test are never two cells apart.
    cell = t + 16 * np.finfo(float).eps * (t + np.abs(points).max())
    # Cell coordinates stay floats and are rank-compressed per axis, so no
    # integer key can overflow however small t is against the extent.
    q = np.floor((points - points.min(axis=0)) / cell)
    ux, rx = np.unique(q[:, 0], return_inverse=True)
    uy, ry = np.unique(q[:, 1], return_inverse=True)
    key = rx * len(uy) + ry
    order = np.argsort(key, kind="stable")
    keys, cell_of, sizes = np.unique(key, return_inverse=True, return_counts=True)
    cx, cy = (c[:, None] for c in np.divmod(keys, len(uy)))
    dx, dy = np.repeat([-1, 0, 1], 3), np.tile([-1, 0, 1], 3)
    nx, ny = np.clip(cx + dx, 0, len(ux) - 1), np.clip(cy + dy, 0, len(uy) - 1)
    nkey = nx * len(uy) + ny
    at = np.minimum(np.searchsorted(keys, nkey), len(keys) - 1)
    found = (ux[nx] - ux[cx] == dx) & (uy[ny] - uy[cy] == dy) & (keys[at] == nkey)
    starts = np.cumsum(sizes) - sizes
    return order, cell_of, starts[at], np.where(found, sizes[at], 0)


def near_pairs(points: np.ndarray, offsets: np.ndarray, t: float):
    """Yield, one batch of whole edges at a time, the point pairs (p, q)
    with p in the batch, q on another edge, and |p - q| <= t.

    `offsets` delimits the points of each edge; the distance test is the
    exact `dx*dx + dy*dy <= t*t`.
    """
    if t <= 0:
        raise ParameterError("t must be > 0")
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    order, cell_of, lo, width = _grid(points, t)
    x, y = points[:, 0], points[:, 1]
    xs, ys, owner_s = x[order], y[order], owner[order]
    cum = np.cumsum(np.add.reduceat(width.sum(axis=1)[cell_of], offsets[:-1]))
    first = 0
    while first < len(cum):
        base = cum[first - 1] if first else 0
        last = max(first + 1, int(np.searchsorted(cum, base + PAIR_BUDGET, side="right")))
        pts = np.arange(offsets[first], offsets[last])
        first = last

        # Positions, in cell order, of every point of the nine neighbour
        # cells of each point in the batch.
        n = width[cell_of[pts]].ravel()
        ends = np.cumsum(n)
        at = np.repeat(lo[cell_of[pts]].ravel() - (ends - n), n) + np.arange(ends[-1])
        per_point = n.reshape(-1, 9).sum(axis=1)
        dx = xs[at] - np.repeat(x[pts], per_point)
        dy = ys[at] - np.repeat(y[pts], per_point)
        keep = (dx * dx + dy * dy <= t * t) & (owner_s[at] != np.repeat(owner[pts], per_point))
        yield np.repeat(pts, per_point)[keep], order[at[keep]]


def _detect(points: np.ndarray, offsets: np.ndarray, t: float, k_min: float):
    """Flagged ordered pairs and the first maximal qualifying run of each.

    A maximal run of edge i against edge j is a longest stretch of
    consecutive controls of i that all lie within t of some control of
    j; it qualifies when its length reaches
    `required_run_length(C_i, C_j, k_min)`. Returns the pair codes
    i * M + j in ascending order and their (start, end) control indices as
    a (P, 2) array.
    """
    m, n = len(offsets) - 1, len(points)
    owner = np.repeat(np.arange(m), np.diff(offsets))
    counts = np.diff(offsets)
    pairs, runs = [np.empty(0, dtype=np.int64)], [np.empty((0, 2), dtype=np.int64)]
    for p, q in near_pairs(points, offsets, t):
        # (partner, control) pairs in that order: each run is a stretch of
        # consecutive controls of one edge under one partner.
        if not p.size:
            continue
        code = np.sort(owner[q] * n + p)
        code = code[np.concatenate(([True], np.diff(code) != 0))]
        j, p = np.divmod(code, n)
        cut = (np.diff(code) != 1) | (np.diff(owner[p]) != 0)
        start = np.flatnonzero(np.concatenate(([True], cut)))
        stop = np.append(start[1:], len(p)) - 1
        i, j = owner[p[start]], j[start]
        ok = stop - start + 1 >= required_run_length(counts[i], counts[j], k_min)
        code, first = np.unique(i[ok] * m + j[ok], return_index=True)
        lo = p[start[ok]][first] - offsets[i[ok]][first]
        pairs.append(code)
        runs.append(np.column_stack([lo, lo + (stop - start)[ok][first]]))
    return np.concatenate(pairs), np.concatenate(runs)


def build_weight_matrix(layout: GraphLayout, params: DetectionParams) -> BundleWeightMatrix:
    """Run pairwise detection for every ordered pair and apply the tradeoff.

    The run goes on to build M x M dissimilarities, so this first stage
    refuses a layout too large for them before doing any work.
    """
    if layout.m > MAX_DENSE_EDGES:
        gb = layout.m**2 * DENSE_BYTES_PER_PAIR / 1e9
        raise ParameterError(
            f"M={layout.m} edges exceeds the dense limit of {MAX_DENSE_EDGES} "
            f"(a run would need about {gb:.1f} GB)"
        )
    t = params.resolve_t(layout)
    pairs, runs = _detect(layout.points, layout.offsets, t, params.k_min)
    return BundleWeightMatrix(m=layout.m, epsilon=params.epsilon, pairs=pairs, runs=runs)


def dump_bundled_pairs(w: BundleWeightMatrix) -> list[dict]:
    """Flagged ordered pairs as [{"i": ..., "j": ...}], lexicographic."""
    ii, jj = np.divmod(w.pairs, w.m)
    return [{"i": i, "j": j} for i, j in zip(ii.tolist(), jj.tolist())]

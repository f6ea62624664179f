"""Pairwise bundling detection and the weight matrix.

Two edges count as bundled (directionally, i against j) when some run of
consecutive control points of edge i all lie within a distance threshold
of edge j's control points. The weight matrix keeps each bundled pair
once with its directions, and a per-control fan mark; the weight of the
pairs not bundled is the optimizer's to choose (`coloring.OptimizerConfig`).

Detection is one array pass over the control points of the layout, a
batch of whole edges at a time: a uniform grid marks, in a bitmap of
partner edge by control, which controls lie within the threshold of
which other edges, and the bitmap read row by row yields every maximal
run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GraphLayout

# The memory model of a run: at its peak it holds about BYTES_PER_RUN +
# BYTES_PER_ENTRY * M^2 + BYTES_PER_PAIR * P + BYTES_PER_BLOCK_ENTRY * c^2
# bytes, P being the flagged ordered pairs and c the edges of the largest
# component of the optimizer's residual graph (see coloring._prepare).
# Fitted to the growth of VmHWM over `peacock color --dims 3` (2 vCPU,
# OpenBLAS) on three layouts at M = 1000, 2000 and 3000, bounding each
# run by >= 5%: a crossing with every pair flagged (P = M(M - 1), c = 1),
# the same plus one far edge (so every crossing pair is a residual pair,
# c = M - 1) and a chain of edges bundled with their neighbours only
# (c = M). With c = 0 it also bounds the peak before the optimizer's check,
# which the far edge's residual pairs set; d takes ~4 of the 5 B/entry.
BYTES_PER_RUN = 16 * 2**20
BYTES_PER_ENTRY = 5
BYTES_PER_PAIR = 44
BYTES_PER_BLOCK_ENTRY = 48

# Half of an 8 GB machine, leaving the rest to the interpreter, the OS and
# other processes.
DENSE_BUDGET = 4 * 2**30

# Candidate point pairs examined per detection batch. Batches hold whole
# edges, so transient memory is bounded by this budget or by one edge's
# candidates.
PAIR_BUDGET = 1 << 16

# Bytes of the (M, controls) hit map of one detection batch, unless one
# edge needs more.
HIT_BUDGET = 1 << 20


def check_budget(m: int, pairs: int, largest: int) -> int:
    """The bytes a run of m edges needs at its peak with `pairs` flagged
    ordered pairs and a largest residual component of `largest` edges,
    refused with ValueError over DENSE_BUDGET."""
    need = (BYTES_PER_RUN + BYTES_PER_ENTRY * m * m + BYTES_PER_PAIR * pairs
            + BYTES_PER_BLOCK_ENTRY * largest * largest)
    if need > DENSE_BUDGET:
        raise ValueError(
            f"M={m} edges, P={pairs} flagged pairs and a largest component of "
            f"c={largest} edges would need about {need / 1e9:.1f} GB, over the "
            f"{DENSE_BUDGET / 1e9:.1f} GB budget"
        )
    return need


@dataclass(frozen=True)
class DetectionParams:
    """Detection threshold and run-length fraction.

    Exactly one of `t_abs` (absolute distance) and `t_frac` (fraction of
    the larger layout dimension) must be given.
    """

    t_abs: float | None = None
    t_frac: float | None = 0.03
    k_min: float = 0.4

    def __post_init__(self):
        if (self.t_abs is None) == (self.t_frac is None):
            raise ValueError("exactly one of t_abs / t_frac must be set")
        if self.t_abs is not None and not self.t_abs > 0:
            raise ValueError(f"t_abs must be > 0, got {self.t_abs}")
        if self.t_frac is not None and not 0 < self.t_frac <= 1:
            raise ValueError(f"t_frac must be in (0, 1], got {self.t_frac}")
        if not 0 < self.k_min <= 1:
            raise ValueError(f"k_min must be in (0, 1], got {self.k_min}")

    def resolve_t(self, layout: GraphLayout) -> float:
        """The absolute distance threshold for this layout."""
        if self.t_abs is not None:
            return self.t_abs
        min_x, min_y, max_x, max_y = layout.extent
        t = self.t_frac * max(max_x - min_x, max_y - min_y)
        if t <= 0:
            raise ValueError(
                "layout has zero extent; a fractional threshold resolves to 0 "
                "(pass an absolute threshold instead)"
            )
        return t


@dataclass(frozen=True)
class BundleWeightMatrix:
    """Detection outcome, one entry per flagged pair.

    `a` and `b` hold the ends of each pair a < b flagged one way or both
    once, in ascending (a, b) order, and `ways` how: 1 if a is bundled
    against b, 2 if b against a, 3 if both. A flagged ordered pair weighs 1
    and the others the optimizer's tradeoff weight, so no M x M matrix is
    kept. `fans[p]` is True where the segment joining controls p and p + 1
    of an edge enters or leaves the first qualifying run of one of its pairs.
    """

    m: int
    a: np.ndarray
    b: np.ndarray
    ways: np.ndarray
    fans: np.ndarray

    def __post_init__(self):
        if (self.a.ndim != 1 or self.b.shape != self.a.shape or self.ways.shape != self.a.shape
                or self.fans.ndim != 1 or self.fans.dtype != bool):
            raise ValueError("a, b and ways must be 1-D of one length and fans a 1-D bool mark")
        for x in (self.a, self.b, self.ways, self.fans):
            x.setflags(write=False)

    @classmethod
    def from_ordered(cls, m: int, codes, fans: np.ndarray) -> BundleWeightMatrix:
        """The matrix of the ordered pairs flagged by `codes`, arrays of i * M + j."""
        mark = np.zeros((m, m), dtype=np.uint8)
        for code in codes:
            mark.ravel()[code] = 1
        mark = np.triu(mark + 2 * mark.T, 1).ravel()  # the ways of each pair a < b
        pairs = np.flatnonzero(mark)
        a, b = np.empty((2, len(pairs)), dtype=np.int32)
        np.divmod(pairs, m, out=(a, b), casting="unsafe")
        return cls(m, a, b, mark[pairs], fans)

    @property
    def bundled_pair_count(self) -> int:
        """The number of flagged ordered pairs."""
        return len(self.a) + int(np.count_nonzero(self.ways == 3))


def required_run_length(c_i, c_j, k_min: float):
    """Run length required for c_i and c_j control points (scalars or arrays)."""
    return np.maximum(1, np.floor(np.maximum(c_i, c_j) * k_min).astype(np.int64))


def _grid(points: np.ndarray, t: float):
    """Bucket points into square cells and find each cell's 3x3 neighbourhood.

    Returns the points in cell order, each point's cell, each cell's start
    and size in that order, and per cell its nine neighbour cells (-1
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
    return order, cell_of, np.cumsum(sizes) - sizes, sizes, np.where(found, at, -1)


def _spans(lo, size, cells):
    """Positions lo[c] to lo[c] + size[c] - 1 of each of `cells` in turn,
    and how many each cell gave."""
    n = size[cells]
    ends = np.cumsum(n)
    return np.repeat(lo[cells] - (ends - n), n) + np.arange(n.sum()), n


def _detect(points: np.ndarray, offsets: np.ndarray, t: float, k_min: float):
    """Each batch's flagged ordered pairs and the first maximal qualifying run of each.

    A maximal run of edge i against edge j is a longest stretch of
    consecutive controls of i that all lie within t of some control of
    j; it qualifies when its length reaches
    `required_run_length(C_i, C_j, k_min)`. Each batch is the pair codes
    i * M + j in ascending order, after those of earlier batches, and the
    absolute indices into `points` of the first and last control of their
    runs.

    A batch of whole edges, controls p0:p1, fills an (M, p1 - p0) map of
    which controls lie within t of some control of which partner edge,
    read row by row; a control is within t of every control in a grid
    cell when it is within t of the far corner of the cell's bounding
    box, since rounded subtraction, squaring and addition are monotone.
    """
    m, counts = len(offsets) - 1, np.diff(offsets)
    owner = np.repeat(np.arange(m), counts)
    edge_start = np.bincount(offsets[:-1], minlength=len(points)) > 0
    order, cell_of, lo, size, nbr = _grid(points, t)
    x, y = points[:, 0], points[:, 1]
    xs, ys, owner_s = x[order], y[order], owner[order]
    box = [f.reduceat(v, lo) for v in (xs, ys) for f in (np.minimum, np.maximum)]
    # Each cell's distinct edges: points keep edge order within a cell.
    new = np.concatenate(([True], owner_s[1:] != owner_s[:-1]))
    new[lo] = True
    cell_edges, n_edges = owner_s[new], np.add.reduceat(new, lo)
    edges_lo = np.cumsum(n_edges) - n_edges
    cand = np.where(nbr >= 0, size[nbr], 0).sum(axis=1)
    cum = np.cumsum(np.add.reduceat(cand[cell_of], offsets[:-1]))
    first = 0
    while first < m:
        base = cum[first - 1] if first else 0
        last = min(np.searchsorted(cum, base + PAIR_BUDGET, side="right"),
                   np.searchsorted(offsets, offsets[first] + HIT_BUDGET // m, side="right") - 1)
        last = max(first + 1, int(last))
        p0, p1 = offsets[first], offsets[last]
        first, w = last, p1 - p0
        hit = np.zeros(m * w, dtype=bool)
        col, slot = np.nonzero(nbr[cell_of[p0:p1]] >= 0)
        c = nbr[cell_of[p0 + col], slot]
        px, py = x[p0 + col], y[p0 + col]
        dx = np.maximum(np.abs(box[0][c] - px), np.abs(box[1][c] - px))
        dy = np.maximum(np.abs(box[2][c] - py), np.abs(box[3][c] - py))
        whole = dx * dx + dy * dy <= t * t
        at, n = _spans(edges_lo, n_edges, c[whole])
        hit[cell_edges[at] * w + np.repeat(col[whole], n)] = True
        part = ~whole
        at, n = _spans(lo, size, c[part])
        dx, dy = xs[at] - np.repeat(px[part], n), ys[at] - np.repeat(py[part], n)
        near = np.flatnonzero(dx * dx + dy * dy <= t * t)
        hit[owner_s[at[near]] * w + np.repeat(col[part], n)[near]] = True
        hit[owner[p0:p1] * w + np.arange(w)] = False

        # Row j of the map, in order, holds each run of an edge against
        # partner j; every row starts at an edge's first control.
        code = np.flatnonzero(hit)
        if not code.size:
            continue
        p = code % w + p0
        start = np.flatnonzero((np.diff(code, prepend=-2) != 1) | edge_start[p])
        stop = np.append(start[1:], len(p)) - 1
        i, j = owner[p[start]], code[start] // w
        ok = stop - start + 1 >= required_run_length(counts[i], counts[j], k_min)
        code, first_run = np.unique(i[ok] * m + j[ok], return_index=True)
        yield code, p[start[ok][first_run]], p[stop[ok][first_run]]


def build_weight_matrix(layout: GraphLayout, params: DetectionParams) -> BundleWeightMatrix:
    """Run pairwise detection for every ordered pair.

    The run goes on to build M x M dissimilarities, so this first stage
    refuses, before any work, a layout too large for them with every pair
    flagged.
    """
    check_budget(layout.m, layout.m * (layout.m - 1), 0)
    t = params.resolve_t(layout)
    # A run's fan-in segment ends at its first control p and its fan-out
    # segment starts at its last control q, unless p starts or q ends the edge.
    edge_start = np.bincount(layout.offsets, minlength=len(layout.points) + 1) > 0
    fans = np.zeros(len(layout.points), dtype=bool)

    def codes():
        for code, first, last in _detect(layout.points, layout.offsets, t, params.k_min):
            fans[first[~edge_start[first]] - 1] = fans[last[~edge_start[last + 1]]] = True
            yield code
    return BundleWeightMatrix.from_ordered(layout.m, codes(), fans)


def dump_bundled_pairs(w: BundleWeightMatrix) -> str:
    """The flagged ordered pairs as the JSON text [{"i": ..., "j": ...}, ...],
    lexicographic, byte for byte as `model.write_json` would write it."""
    flags = np.zeros((w.m, w.m), dtype=bool)
    flags[w.a, w.b], flags[w.b, w.a] = w.ways != 2, w.ways != 1
    i, j = np.nonzero(flags)
    rows = ",\n".join(map(' {\n  "i": %d,\n  "j": %d\n }'.__mod__, zip(i.tolist(), j.tolist())))
    return f"[\n{rows}\n]\n" if rows else "[]\n"

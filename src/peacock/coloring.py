"""Color optimization: weighted stress minimization plus normalization.

The embedding places every edge in a 1- to 3-dimensional color space so
that distances between bundled edges match their endpoint
dissimilarities; non-bundled pairs enter with the tradeoff weight. The
optimizer is SMACOF stress majorization (Gansner, Koren & North, "Graph
Drawing by Stress Majorization", GD 2004) accelerated by squared
extrapolation (SQUAREM; Varadhan & Roland, Scand. J. Statist. 2008).
Afterwards every edge's value is rescaled against its bundle
neighborhood so each bundle spans the full color range. The embedding and
the normalized colors are read-only (M, q) arrays.

The Guttman transform G never increases the stress (de Leeuw, J.
Classification 1988). One cycle from an accepted iterate y0 takes
y1 = G(y0) and y2 = G(y1), extrapolates along r = y1 - y0 and
v = y2 - 2 y1 + y0 to y' = y0 + 2 a r + a^2 v with the S3 step length
a = |r| / |v|, at least 1 and at most a cap that grows fourfold each
time a reaches it, and takes one stabilizing transform G(y'). G(y') is
accepted only if its stress is no higher than that of y1; otherwise the
cycle falls back to y2, whose stress is no higher either. So the stress
never rises across accepted iterates (y1 counts as one), and at a = 1,
where y' = y2, a cycle is three plain steps. `max_iters` counts
Guttman transforms, the same unit as plain SMACOF's iterations.

The weights come as the bundled pairs plus the tradeoff, and the only
M x M array is the dissimilarity matrix d. The Laplacian of the
symmetrized weights splits as V = u (M I - J) + L_R: u is the smallest
pair weight (2 epsilon unless every pair is bundled one way or both) and
L_R the Laplacian of the residual weights, which only bundled pairs have.
So V+ is one small inverse per connected component of the residual graph
(`_prepare`), one formula for every u >= 0 that never divides by u. Each
iteration splits B(Y) Y and the stress the same way: one pass over row
blocks of the upper triangle of d for the part every pair shares, and one
small block per component for the rest (`_smacof_step`), with no M x M
temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundling import DENSE_BUDGET, PAIR_BUDGET, BundleWeightMatrix
from .dissimilarity import distances, upper_row_blocks
from .model import GraphLayout

_TINY = 1e-30

# Peak bytes while the largest component's c x c blocks are built:
# RESIDENT per M x M entry for d and the interpreter's growth by then, on
# top of the weight matrix's own arrays; INVERSE per c x c entry for the
# residual weights, the block, LAPACK's copies, the inverse and the
# gathered dissimilarities. Measured as peak RSS above the interpreter's on
# a chain of edges each bundled with its neighbours only, one component of
# all M edges, q = 3: 8.7-8.8 B per entry after the dissimilarities and
# 50.9-51.5 B at the peak, at M = 2000 and 3000.
RESIDENT_BYTES_PER_PAIR = 9
INVERSE_BYTES_PER_PAIR = 44

# The cap on the S3 step length starts at 1 and grows by this factor each
# time the step reaches it (Varadhan & Roland's step-length control).
_CAP_GROWTH = 4.0


class OptimizationError(ValueError):
    """The optimization problem is degenerate (e.g. all weights zero)."""


@dataclass(frozen=True)
class OptimizerConfig:
    q: int = 1
    max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 0
    init: str = "endpoint-projection"  # or "seeded-random"

    def __post_init__(self):
        if self.q not in (1, 2, 3):
            raise ValueError(f"q must be 1, 2 or 3, got {self.q}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.init not in ("endpoint-projection", "seeded-random"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class OptimizeResult:
    embedding: np.ndarray  # (M, q), read-only
    stress: float
    n_iters: int
    stop_reason: str  # "tolerance", "max_iters" or "stress_increase"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"


def _components(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each of m vertices under the edges
    (a[k], b[k]); components are numbered in the order of their smallest
    vertex."""
    root = np.arange(m)
    while True:
        ra, rb = root[a], root[b]
        if (ra == rb).all():
            return np.unique(root, return_inverse=True)[1]
        # Hook each edge's larger root under its smaller one, then point
        # every vertex at its root; a root is always its tree's smallest
        # vertex.
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up


def _residual_pairs(w: BundleWeightMatrix):
    """u, the smallest symmetrized pair weight w_ij + w_ji, and the pairs
    i < j whose weight exceeds it, as (i, j, w_ij + w_ji - u).

    An unordered pair weighs 2 when flagged both ways, 1 + epsilon when
    flagged one way and 2 epsilon when not flagged, so u is 2 epsilon
    unless there are pairs and every one is flagged. The flagged pairs are
    read in batches of PAIR_BUDGET, so no array holds more than one entry
    per pair.
    """
    m, pairs = w.m, w.pairs
    codes, both = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=bool)]
    for lo in range(0, len(pairs), PAIR_BUDGET):
        i, j = np.divmod(pairs[lo : lo + PAIR_BUDGET], m)
        rev = j * m + i
        mutual = pairs[np.minimum(np.searchsorted(pairs, rev), len(pairs) - 1)] == rev
        once = (i < j) | ~mutual
        codes.append(np.minimum(i, j)[once] * m + np.maximum(i, j)[once])
        both.append(mutual[once])
    code, mutual = np.concatenate(codes), np.concatenate(both)
    w_sym = np.where(mutual, 2.0, 1.0 + w.epsilon)
    if 0 < len(code) == m * (m - 1) // 2:
        u = float(w_sym.min())
    else:
        u = 2.0 * w.epsilon
    r = w_sym - u
    keep = r > 0
    i, j = np.divmod(code[keep], m)
    return u, i, j, r[keep]


def _prepare(w: BundleWeightMatrix, d: np.ndarray):
    """Everything `_smacof_step` needs besides d: (u, sum of d_ij^2 over
    i < j, blocks).

    With u the smallest symmetrized pair weight, V = u (M I - J) + L_R, L_R
    being the Laplacian of the residual weights w_ij + w_ji - u, which
    only bundled pairs have. On centered vectors, and B(Y) Y is one, V
    acts as u M I + L_R, which is block-diagonal by the components of the
    residual graph. A component of c edges inverts B_k = u M I + L_k + J / c
    and keeps B_k^-1 - J / (c (u M + 1)): V+ on the component's centered
    vectors and 0 on its constant vector, whose eigenvalue u M (0, or tiny
    at a small epsilon) thus never enters an inverse. `_smacof_step` adds
    the component's mean move.

    `blocks` is a list of (idx, inv, res, dist), one per component size c:
    idx (n, c) holds, in ascending order, the edges of the n components of
    that size, inv (n, c, c) their inverses, res their residual weights
    and dist their dissimilarities.
    """
    m = w.m
    u, a, b, r = _residual_pairs(w)
    if not u > 0 and not len(r):
        raise OptimizationError("all weights are zero; nothing to optimize")
    label = _components(m, a, b)
    sizes = np.bincount(label)
    largest = int(sizes.max())
    need = (m * m * RESIDENT_BYTES_PER_PAIR + w.pairs.nbytes + w.runs.nbytes
            + largest * largest * INVERSE_BYTES_PER_PAIR)
    if need > DENSE_BUDGET:
        raise OptimizationError(
            f"{largest} of the {m} edges form one bundle component; inverting "
            f"its block would need about {need / 1e9:.1f} GB"
        )
    d2 = 0.5 * float(np.vdot(d, d))
    size = sizes[label]
    order = np.lexsort((label, size))
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    blocks = []
    for c in np.unique(size):
        idx = order[size[order] == c].reshape(-1, c)
        inside = size[a] == c
        first = rank[idx[0, 0]]
        row, pa = np.divmod(rank[a[inside]] - first, c)
        pb = (rank[b[inside]] - first) % c
        res = np.zeros((len(idx), c, c))
        res[row, pa, pb] = res[row, pb, pa] = r[inside]
        diag = np.arange(c)
        block = np.negative(res)
        block[:, diag, diag] = res.sum(axis=2) + u * m
        block += 1.0 / c
        inv = np.linalg.inv(block)
        del block
        inv -= 1.0 / (c * (u * m + 1.0))
        blocks.append((idx, inv, res, d[idx[:, :, None], idx[:, None, :]]))
    return u, d2, blocks


def _smacof_step(y: np.ndarray, d: np.ndarray, plan):
    """The stress of y and its Guttman transform V+ B(Y) Y; the transform
    never increases the stress.

    B(Y) Y and the stress split as V does. The part every pair shares is u
    times that of unit weights, S, from one pass over upper row blocks of d
    (`upper_row_blocks`): with c_ij = d_ij / delta_ij (0 where the distance
    delta_ij is 0), row and column sums of c and c Y come from one product
    per side with [1 | Y], and the stress is u times
    sum d^2 - 2 sum d delta + sum delta^2 over i < j, the last sum being
    M sum |y_i|^2 - |sum y_i|^2. The middle sum is added up as it stands:
    taken as <Y, B Y> it loses digits wherever two iterates nearly
    coincide. The residual part R is summed over each component's block.

    B(Y) Y = u S + R, where R sums to 0 over each component, so V+ moves
    a component's mean by mean_k(S) / M if u > 0 and not at all if u = 0;
    `_prepare`'s block inverse gives the rest.
    """
    u, d2, blocks = plan
    m = len(y)
    sy = np.zeros_like(y)
    ones_y = np.column_stack([np.ones(m), y])
    d_delta = 0.0  # twice the sum of d_ij delta_ij over i < j
    for lo, hi in upper_row_blocks(m):
        n = hi - lo
        d_b = d[lo:hi, lo:]
        delta = distances(y[lo:hi], y[lo:])
        # The first n columns hold the pairs within rows lo..hi-1 both ways,
        # so their rows alone take those pairs' share of B(Y) Y.
        d_delta += 2.0 * np.einsum("ij,ij->i", d_b, delta).sum()
        d_delta -= np.einsum("ij,ij->i", d_b[:, :n], delta[:, :n]).sum()
        c = np.divide(d_b, delta, out=delta, where=delta > 0)
        rows = c @ ones_y[lo:]
        cols = c[:, n:].T @ ones_y[lo:hi]
        sy[lo:hi] += rows[:, :1] * y[lo:hi] - rows[:, 1:]
        sy[hi:] += cols[:, :1] * y[hi:] - cols[:, 1:]
        del c, delta  # before the next block's distances are allocated
    total = y.sum(axis=0)
    s = max(0.0, u * (d2 - d_delta + m * np.vdot(y, y) - total @ total))
    y_next = np.empty_like(y)
    for idx, inv, res, dist in blocks:
        yy = y[idx]
        delta = distances(yy, yy)
        err = np.subtract(dist, delta)
        err *= err
        err *= res
        s += 0.5 * err.sum()  # each pair sits in its block both ways
        c = np.divide(dist, delta, out=delta, where=delta > 0)
        c *= res
        sk = sy[idx]
        by = u * sk + c.sum(axis=2)[..., None] * yy - c @ yy
        y_next[idx] = inv @ by + (u > 0) / m * sk.mean(axis=1, keepdims=True)
    return float(s), y_next


# Standardized init coordinates closer than _TIE_TOL count as tied; tied
# rows are then spread _TIE_STEP apart.
_TIE_TOL = 1e-9
_TIE_STEP = 1e-6


def _standardize(a: np.ndarray) -> np.ndarray:
    std = a.std(axis=0)
    std[std == 0] = 1.0
    return (a - a.mean(axis=0)) / std


def _refine(label: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Split each group of `label` where its sorted `values` jump by more
    than _TIE_TOL. New labels follow (label, value) order, so they depend
    on the values only, not on the row order."""
    order = np.lexsort((values, label))
    lab, val = label[order], values[order]
    starts = np.ones(len(lab), dtype=bool)
    starts[1:] = (lab[1:] != lab[:-1]) | (np.diff(val) > _TIE_TOL)
    out = np.empty_like(label)
    out[order] = np.cumsum(starts) - 1
    return out


def _break_ties(y: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Spread rows of y that coincide within _TIE_TOL along the first axis.

    Distinct edges placed at one point form a symmetric saddle that
    SMACOF leaves only through rounding noise. Each tied row moves by
    _TIE_STEP times its rank within its group, ranked by the columns of
    `keys` in turn (again up to _TIE_TOL) and centered on the group, so
    the result rests on the edges' geometry, not on their ids. Rows
    without a tie are returned unchanged.
    """
    group = np.zeros(len(y), dtype=np.int64)
    for col in y.T:
        group = _refine(group, col)
    tied = np.bincount(group)[group] > 1
    if not tied.any():
        return y
    rank = group
    for col in keys.T:
        rank = _refine(rank, col)
    lo = np.full(group.max() + 1, len(y))
    hi = np.zeros(group.max() + 1, dtype=np.int64)
    np.minimum.at(lo, group, rank)
    np.maximum.at(hi, group, rank)
    y = y.copy()
    y[tied, 0] += _TIE_STEP * (rank - (lo + hi)[group] / 2)[tied]
    return y


def initial_embedding(
    m: int,
    cfg: OptimizerConfig,
    layout: GraphLayout | None = None,
) -> np.ndarray:
    """Starting point (m, q): projected edge midpoints (and, for q = 3,
    edge half-lengths), or seeded Gaussian noise.

    Projected midpoints of distinct edges can coincide; such ties are
    broken by the midpoint's other coordinate, then by the edge's
    endpoints (see `_break_ties`).
    """
    if cfg.init == "seeded-random":
        y = np.random.default_rng(cfg.seed).standard_normal((m, cfg.q))
        y.setflags(write=False)
        return y

    if layout is None:
        raise OptimizationError("endpoint-projection init requires the layout")
    ends = layout.ends
    mids = (ends[:, 0] + ends[:, 1]) / 2.0
    hx, hy = ((ends[:, 1] - ends[:, 0]) / 2.0).T
    # q = 3 adds the half-length |h|: a third column linear in the first two
    # would stay in their plane through every transform.
    y = np.column_stack([mids, np.hypot(hx, hy)])[:, : cfg.q]
    # Edges that share a midpoint differ in their half-vector h, up to its
    # sign; hx², hy² and hx·hy tell them apart and ignore endpoint order.
    keys = np.column_stack([hx * hx, hy * hy, hx * hy])
    if cfg.q == 1:
        keys = np.column_stack([mids[:, 1], keys])
    y = _break_ties(_standardize(y), _standardize(keys))
    y.setflags(write=False)
    return y


def _collapsed_stress(plan) -> float:
    """The stress of the embedding collapsed to one point, sum of w d^2
    over ordered pairs: the scale of the stress sum's rounding error."""
    u, d2, blocks = plan
    s = u * d2
    for _, _, res, dist in blocks:
        s += 0.5 * (dist * dist * res).sum()
    return float(s)


def _iterates(y: np.ndarray, d: np.ndarray, plan, max_iters: int):
    """The accepted iterates of accelerated SMACOF from y, as (iterate,
    its stress, Guttman transforms taken so far); the first is y itself.

    Each cycle (see the module docstring) yields y1 = G(y0), then G(y') or
    y2. After y1 a cycle needs up to three more transforms; with fewer
    left, plain steps spend the rest of the budget. The stress of an
    iterate and its transform come from one `_smacof_step` call, so a run
    makes max_iters + 1 calls at most.
    """
    s, g = _smacof_step(y, d, plan)
    n = 0
    cap = 1.0
    yield y, s, n
    while n < max_iters:
        s1, g1 = _smacof_step(g, d, plan)
        n += 1
        yield g, s1, n
        if max_iters - n < 3:
            y, s, g = g, s1, g1
            continue
        r = g - y
        v = g1 - g - r
        rr, vv = float(np.vdot(r, r)), float(np.vdot(v, v))
        a = cap if rr >= cap * cap * vv else max(1.0, (rr / vv) ** 0.5)
        if a == cap:
            cap *= _CAP_GROWTH
        # At a = 1, y' is y2; taking y2 itself keeps the cycle plain
        # SMACOF to the last bit, so iterates scale exactly with d.
        y_x = g1 if a == 1.0 else y + 2.0 * a * r + a * a * v
        s_x, y_new = _smacof_step(y_x, d, plan)
        s_new, g_new = _smacof_step(y_new, d, plan)
        n += 2
        if not s_new <= s1:
            if y_x is g1:  # y2's stress and transform are at hand
                y_new, s_new, g_new = g1, s_x, y_new
            else:
                y_new = g1
                s_new, g_new = _smacof_step(y_new, d, plan)
                n += 1
        y, s, g = y_new, s_new, g_new
        yield y, s, n


def optimize(
    w: BundleWeightMatrix,
    d: np.ndarray,
    cfg: OptimizerConfig,
    layout: GraphLayout | None = None,
) -> OptimizeResult:
    """Run accelerated SMACOF until the relative stress decrease between
    accepted iterates stalls or cfg.max_iters Guttman transforms are spent."""
    if d.shape != (w.m, w.m):
        raise ValueError(f"dimension mismatch: w={w.m}, d={d.shape}")
    plan = _prepare(w, d)
    steps = _iterates(initial_embedding(w.m, cfg, layout), d, plan, cfg.max_iters)
    y, s_prev, n_iters = next(steps)
    stop_reason = "max_iters"
    for y, s, n_iters in steps:
        if (s_prev - s) / max(s_prev, _TINY) < cfg.rel_tol:
            # A rise within the rounding error of the M*M-term stress sum is
            # noise. That sum's scale is the stress of the collapsed embedding.
            noise = w.m * w.m * np.finfo(float).eps * _collapsed_stress(plan)
            stop_reason = "stress_increase" if s - s_prev > noise else "tolerance"
            s_prev = s
            break
        s_prev = s
    if not np.isfinite(y).all():
        raise ValueError("embedding contains non-finite values")
    y.setflags(write=False)
    return OptimizeResult(
        embedding=y,
        stress=s_prev,
        n_iters=n_iters,
        stop_reason=stop_reason,
    )


def normalize_colors(y: np.ndarray, w: BundleWeightMatrix) -> np.ndarray:
    """Rescale each edge of the embedding y (M, q) against its bundle
    neighborhood into [0, 1], as a read-only (M, q) array.

    The neighborhood of edge i is i itself plus every edge bundled with
    it in either direction; each output dimension is min-max mapped over
    the neighborhood. Edges with no bundle partners fall back to the
    global min-max; a dimension with no spread maps to 0.5.
    """
    if len(y) != w.m:
        raise ValueError(f"dimension mismatch: y={len(y)}, w={w.m}")
    # Per dimension (rows of the transposes), a running min and max over
    # both ends of each flagged pair; both are exact in any order.
    lo, hi = y.T.copy(), y.T.copy()
    alone = np.ones(w.m, dtype=bool)
    for start in range(0, len(w.pairs), PAIR_BUDGET):
        i, j = np.divmod(w.pairs[start : start + PAIR_BUDGET], w.m)
        alone[i] = alone[j] = False
        for a, b in ((i, j), (j, i)):
            for dim in range(y.shape[1]):
                np.minimum.at(lo[dim], a, y[b, dim])
                np.maximum.at(hi[dim], a, y[b, dim])
    lo, hi = lo.T, hi.T
    lo[alone] = y.min(axis=0)
    hi[alone] = y.max(axis=0)
    span = hi - lo
    col = np.divide(y - lo, span, out=np.full_like(y, 0.5), where=span > 0)
    np.clip(col, 0.0, 1.0, out=col)
    col.setflags(write=False)
    return col


# Fixed gradient for 1-D colorings: blue -> red -> yellow.
_GRADIENT = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])


def colors_to_display(col: np.ndarray) -> np.ndarray:
    """Map normalized colors (M, q) to RGB triples in [0, 1]^3."""
    q = col.shape[1]
    if q == 3:
        return col.copy()
    if q == 2:
        rgb = np.zeros((len(col), 3))
        rgb[:, 0] = col[:, 0]
        rgb[:, 2] = col[:, 1]
        return rgb
    v = col[:, [0]]
    lower = v <= 0.5
    a = np.where(lower, v / 0.5, (v - 0.5) / 0.5)
    g0 = np.where(lower, _GRADIENT[0], _GRADIENT[1])
    g1 = np.where(lower, _GRADIENT[1], _GRADIENT[2])
    return (1 - a) * g0 + a * g1

"""Color optimization: weighted stress minimization plus normalization.

The embedding places every edge in a 1- to 3-dimensional color space so
that distances between bundled edges match their endpoint
dissimilarities; non-bundled pairs enter with the tradeoff weight
`OptimizerConfig.epsilon`. The optimizer is SMACOF stress majorization
(Gansner, Koren & North, "Graph Drawing by Stress Majorization", GD 2004)
accelerated by squared extrapolation (SQUAREM; Varadhan & Roland, Scand.
J. Statist. 2008). Afterwards every edge's value is rescaled against its
bundle neighborhood so each bundle spans the full color range. The
embedding and the normalized colors are read-only (M, q) arrays.

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

The weights come as the bundled pairs plus the tradeoff, and the
dissimilarities d as the packed upper row blocks of their matrix
(`dissimilarity.upper_row_blocks`), opaque to callers; no array is M x M.
The Laplacian of the symmetrized weights splits as V = u (M I - J) + L_R:
u is the smallest pair weight (2 epsilon unless every pair is bundled one
way or both) and L_R the Laplacian of the residual weights, which only
bundled pairs have. So V+ is one small inverse per connected component of
the residual graph (`_prepare`), one formula for every u >= 0 that never
divides by u. Each iteration splits B(Y) Y and the stress the same way:
one pass over the row blocks of d for the part every pair shares, and one
pass over the flat list of residual pairs for the rest (`_smacof_step`),
with no M x M temporary. The stress is summed as it stands, term by
nonnegative term, so its rounding stays relative to the stress however
close the fit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .bundling import BundleWeightMatrix, check_budget
from .dissimilarity import distances, packed_size, upper_row_blocks
from .model import GraphLayout

_TINY = 1e-30

# The cap on the S3 step length starts at 1 and grows by this factor each
# time the step reaches it (Varadhan & Roland's step-length control).
_CAP_GROWTH = 4.0


@dataclass(frozen=True)
class OptimizerConfig:
    q: int = 1
    max_iters: int = 500
    rel_tol: float = 1e-6
    epsilon: float = 0.001  # the weight of an ordered pair that is not bundled

    def __post_init__(self):
        for name, value in ("q", self.q), ("max_iters", self.max_iters):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.q not in (1, 2, 3):
            raise ValueError(f"q must be 1, 2 or 3, got {self.q}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


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


def _prepare(w: BundleWeightMatrix, d: np.ndarray, epsilon: float):
    """Everything `_smacof_step` needs besides d: (u, blocks, pairs). Of d
    it reads only the residual pairs' entries.

    An ordered pair weighs 1 when flagged and epsilon when not, so an
    unordered pair weighs 2 when flagged both ways, 1 + epsilon when
    flagged one way and 2 epsilon when not flagged. With u the smallest
    such weight (2 epsilon unless there are pairs and every one is
    flagged), V = u (M I - J) + L_R, L_R being the Laplacian of the
    residual weights w_ij + w_ji - u, which only bundled pairs have. On
    centered vectors, and B(Y) Y is one, V acts as u M I + L_R, which is
    block-diagonal by the components of the residual graph. A component
    of c edges inverts B_k = u M I + L_k + J / c and keeps
    B_k^-1 - J / (c (u M + 1)): V+ on the component's centered
    vectors and 0 on its constant vector, whose eigenvalue u M (0, or tiny
    at a small epsilon) thus never enters an inverse. `_smacof_step` adds
    the component's mean move.

    `blocks` is a list of (idx, inv), one per component size c: idx (n, c)
    holds, in ascending order, the edges of the n components of that size
    and inv (n, c, c) their inverses. `pairs` is (a, b, r, d_ab), flat over
    the pairs of w whose weight exceeds u: their ends a < b as intp, their
    residual weights and their dissimilarities.
    """
    m, flagged = w.m, w.bundled_pair_count
    every = 0 < len(w.a) == m * (m - 1) // 2  # each pair flagged one way or both
    u = (2.0 if flagged == m * (m - 1) else 1.0 + epsilon) if every else 2.0 * epsilon
    # Weights by ways; residual ones are at most 2 - u, so at u = 2 no pair is read.
    weight = np.array([2.0 * epsilon, 1.0 + epsilon, 1.0 + epsilon, 2.0])
    n = len(w.a) if u < 2.0 else 0
    keep = (weight > u)[w.ways[:n]]
    a, b = (e[:n].astype(np.intp)[keep] for e in (w.a, w.b))
    r = weight[w.ways[:n][keep]] - u
    del keep  # before the block inverses, where a run peaks
    if not u > 0 and not len(r):
        raise ValueError("all weights are zero; nothing to optimize")
    label = _components(m, a, b)
    sizes = np.bincount(label)
    check_budget(m, flagged, int(sizes.max()))
    # d_ab, a <= b, is entry row_start[a] + b of d.
    row_start = np.empty(m, dtype=np.int64)
    for lo, hi, flat in upper_row_blocks(m):
        row_start[lo:hi] = flat.start - lo + (m - lo) * np.arange(hi - lo)
    # Pairs ordered by b - a, then a: neither end repeats from one pair to
    # the next, and a bincount stalls on repeated adds to one bin.
    diagonal = np.lexsort((a, b - a))
    a, b, r = a[diagonal], b[diagonal], r[diagonal]
    d_ab = d[row_start[a] + b]
    degree = np.bincount(a, r, m) + np.bincount(b, r, m) + u * m
    size = sizes[label]
    order = np.lexsort((label, size))
    rank = np.argsort(order)  # the inverse permutation
    blocks = []
    for c in np.flatnonzero(np.bincount(size)):
        idx = order[size[order] == c].reshape(-1, c)
        inside = size[a] == c
        first = rank[idx[0, 0]]
        # Both ends of a pair lie in one component, one row of the blocks.
        row = (rank[a[inside]] - first) // c
        pa, pb = (rank[e[inside]] - first - row * c for e in (a, b))
        block = np.full((len(idx), c, c), 1.0 / c)
        block[row, pa, pb] = block[row, pb, pa] = 1.0 / c - r[inside]
        block[:, np.arange(c), np.arange(c)] += degree[idx]
        del row, pa, pb  # before the inverse, where a run peaks
        inv = np.linalg.inv(block)
        inv -= 1.0 / (c * (u * m + 1.0))
        blocks.append((idx, inv))
    return u, blocks, (a, b, r, d_ab)


def _smacof_step(y: np.ndarray, d: np.ndarray, plan):
    """The stress of y and its Guttman transform V+ B(Y) Y; the transform
    never increases the stress.

    B(Y) Y and the stress split as V does. The part every pair shares is u
    times that of unit weights, S, from one pass over upper row blocks of d
    (`upper_row_blocks`): with c_ij = d_ij / delta_ij (0 where the distance
    delta_ij is 0), row and column sums of c and c Y come from one product
    per side with [1 | Y], and the stress is u times the sum of
    (d_ij - delta_ij)^2 over i < j. Each term is >= 0, so the sum rounds
    relative to the stress itself; expanded as sum d^2 - 2 sum d delta +
    sum delta^2, its three sums would nearly cancel at a good fit. The
    residual part R and its stress come from the flat residual pairs:
    (a, b) adds r_ab d_ab / delta_ab (y_a - y_b) to row a of R and takes
    it from row b, by a gather and a bincount per end.

    B(Y) Y = u S + R, where R sums to 0 over each component, so V+ moves
    a component's mean by mean_k(S) / M if u > 0 and not at all if u = 0;
    `_prepare`'s block inverse gives the rest. At u = 0 (epsilon = 0) the
    shared part counts for nothing, so its pass is skipped.
    """
    u, blocks, (a, b, r, d_ab) = plan
    m = len(y)
    sy = np.zeros_like(y)
    ones_y = np.column_stack([np.ones(m), y])
    s = 0.0  # the sum of (d_ij - delta_ij)^2 over i < j
    for lo, hi, flat in upper_row_blocks(m) if u > 0 else ():
        n = hi - lo
        d_b = d[flat].reshape(n, m - lo)
        delta = distances(y[lo:hi], y[lo:])
        # The first n columns hold the pairs within rows lo..hi-1 both ways:
        # their squares count half, and their rows alone take those pairs'
        # share of B(Y) Y.
        err = d_b - delta
        s += np.einsum("ij,ij->", err, err) - 0.5 * np.einsum("ij,ij->", err[:, :n], err[:, :n])
        del err
        c = np.divide(d_b, delta, out=delta, where=delta > 0)
        rows = c @ ones_y[lo:]
        cols = c[:, n:].T @ ones_y[lo:hi]
        sy[lo:hi] += rows[:, :1] * y[lo:hi] - rows[:, 1:]
        sy[hi:] += cols[:, :1] * y[hi:] - cols[:, 1:]
        del c, delta  # before the next block's distances are allocated
    s *= u
    diff = [col.take(a) - col.take(b) for col in y.T.copy()]
    delta = np.abs(diff[0]) if len(diff) == 1 else np.sqrt(sum(x * x for x in diff))
    err = d_ab - delta
    s += np.einsum("i,i,i->", r, err, err)
    c = np.divide(np.multiply(r, d_ab, out=err), delta, out=delta, where=delta > 0)
    rs = np.column_stack([np.bincount(a, cx, m) - np.bincount(b, cx, m)
                          for cx in (x * c for x in diff)])
    y_next = np.empty_like(y)
    for idx, inv in blocks:
        sk = sy[idx]
        y_next[idx] = inv @ (u * sk + rs[idx]) + (u > 0) / m * sk.mean(axis=1, keepdims=True)
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


def initial_embedding(layout: GraphLayout, cfg: OptimizerConfig) -> np.ndarray:
    """Starting point (M, q): the projected edge midpoints and, for q = 3,
    the edge half-lengths (the squared x half-extents if every edge has one
    length).

    Projected midpoints of distinct edges can coincide; such ties are
    broken by the midpoint's other coordinate, then by the edge's
    endpoints (see `_break_ties`).
    """
    ends = layout.ends
    mids = (ends[:, 0] + ends[:, 1]) / 2.0
    hx, hy = ((ends[:, 1] - ends[:, 0]) / 2.0).T
    # Edges that share a midpoint differ in their half-vector h, up to its
    # sign; hx², hy² and hx·hy tell them apart and ignore endpoint order.
    keys = np.column_stack([hx * hx, hy * hy, hx * hy])
    # q = 3 adds the half-length |h|: a third column linear in the first two
    # would stay in their plane through every transform. Where all edges
    # have one length (to _TIE_TOL), |h| is rounding noise; hx² stands in.
    length = np.hypot(hx, hy)
    if np.ptp(length) <= _TIE_TOL * length.max():
        length = keys[:, 0]
    y = np.column_stack([mids, length])[:, : cfg.q]
    if cfg.q == 1:
        keys = np.column_stack([mids[:, 1], keys])
    y = _break_ties(_standardize(y), _standardize(keys))
    y.setflags(write=False)
    return y


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


def optimize(w: BundleWeightMatrix, d: np.ndarray, y: np.ndarray,
             cfg: OptimizerConfig) -> OptimizeResult:
    """Run accelerated SMACOF from the start y (M, q) until the relative
    stress decrease between accepted iterates stalls or cfg.max_iters
    Guttman transforms are spent. Any start works; `initial_embedding`
    gives the default one."""
    if d.shape != (packed_size(w.m),):
        raise ValueError(f"dimension mismatch: d must be the {packed_size(w.m)} packed "
                         f"dissimilarities of w's {w.m} edges, not shape {d.shape}")
    if y.shape != (w.m, cfg.q):
        raise ValueError(f"start has shape {y.shape}, not ({w.m}, {cfg.q})")
    if not np.isfinite(y).all():
        raise ValueError("start contains non-finite values")
    plan = _prepare(w, d, cfg.epsilon)
    # At u = 0 the steps read d only at the residual pairs. NaN shows in
    # both of min and max and +-inf in one, with no M x M temporary.
    u, _, (*_, d_ab) = plan
    read = d if u > 0 else d_ab
    if not (np.isfinite(read.min()) and np.isfinite(read.max())):
        raise ValueError("dissimilarities contain non-finite values")
    steps = _iterates(y, d, plan, cfg.max_iters)
    y, s_prev, n_iters = next(steps)
    stop_reason = "max_iters"
    for y, s, n_iters in steps:
        if (s_prev - s) / max(s_prev, _TINY) < cfg.rel_tol:
            # A rise within the rounding error of the M*M-term stress sum is
            # noise. Each distance rounds relative to d, so near an exact fit
            # the stress s carries noise of about eps sqrt(s C), C the stress
            # at y = 0, every edge at one point: far above eps s, so C sets
            # the scale. The allowance is >= 0, so only a rise needs C.
            rose = s > s_prev and (s - s_prev > w.m * w.m * np.finfo(float).eps
                                   * _smacof_step(np.zeros_like(y), d, plan)[0])
            stop_reason = "stress_increase" if rose else "tolerance"
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
    global min-max. A neighborhood that spans at most 1e-9 of the
    dimension's span over all edges has no spread and maps to 0.5.
    """
    if len(y) != w.m:
        raise ValueError(f"dimension mismatch: y={len(y)}, w={w.m}")
    # Per dimension (rows of the transposes), a running min and max over
    # both ends of each flagged pair, exact in any order; none if all are.
    n = len(w.a) if len(w.a) < w.m * (w.m - 1) // 2 else 0
    i, j = w.a[:n], w.b[:n]
    yt, lo, hi = y.T.copy(), y.T.copy(), y.T.copy()
    alone = np.ones(w.m, dtype=bool)
    alone[i] = alone[j] = False
    for y_d, lo_d, hi_d in zip(yt, lo, hi):
        for a, b in (i, j), (j, i):
            np.minimum.at(lo_d, a, y_d[b])
            np.maximum.at(hi_d, a, y_d[b])
    lo, hi = lo.T, hi.T
    lo[alone] = y.min(axis=0)
    hi[alone] = y.max(axis=0)
    span = hi - lo
    # Rounding leaves noise of about 2e-10 of the span; spread that small is none.
    spread = span > 1e-9 * (y.max(axis=0) - y.min(axis=0))
    col = np.divide(y - lo, span, out=np.full_like(y, 0.5), where=spread)
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

"""Color optimization: weighted stress minimization plus normalization.

The embedding places every edge in a 1- to 3-dimensional color space so
that distances between bundled edges match their endpoint
dissimilarities; non-bundled pairs enter with the tradeoff weight. The
optimizer is SMACOF stress majorization (Gansner, Koren & North, "Graph
Drawing by Stress Majorization", GD 2004), so the cost never increases
across iterations. Afterwards every edge's value is rescaled against its
bundle neighborhood so each bundle spans the full color range.

The Laplacian of the symmetrized weights splits as V = u (M I - J) + L_R:
u is the smallest pair weight (2 epsilon unless every pair is bundled one
way or both) and L_R the Laplacian of the residual weights, which only
bundled pairs have. So V+ is one small inverse per connected component of
the residual graph, not an M x M matrix (`_prepare`). Each iteration is
one pass over row blocks of the upper triangle that yields the iterate's
stress and B(Y) Y together (`_stress_pass`), with no M x M temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundling import DENSE_BUDGET, BundleWeightMatrix
from .dissimilarity import DissimilarityMatrix, distances, upper_row_blocks
from .model import GraphLayout

_TINY = 1e-30

# Peak bytes while the largest component's c x c block is inverted:
# RESIDENT per M x M entry for the arrays alive then (weights, flags, d,
# w_sym and the component graph), INVERSE per c x c entry for the block,
# its inverse and LAPACK's copies. Measured as peak RSS above the
# interpreter's on a chain of edges each bundled with its neighbours only,
# one component of all M edges, q = 3: 59-61 B per entry at M = 2000 and
# 3000, of which about 31 B went to the inverse.
RESIDENT_BYTES_PER_PAIR = 26
INVERSE_BYTES_PER_PAIR = 36


class OptimizationError(ValueError):
    """The optimization problem is degenerate (e.g. all weights zero)."""


@dataclass(frozen=True)
class ColorEmbedding:
    m: int
    q: int
    y: np.ndarray

    def __post_init__(self):
        if self.q not in (1, 2, 3):
            raise ValueError(f"q must be 1, 2 or 3, got {self.q}")
        if self.y.shape != (self.m, self.q):
            raise ValueError("embedding shape mismatch")
        if not np.isfinite(self.y).all():
            raise ValueError("embedding contains non-finite values")
        self.y.setflags(write=False)


@dataclass(frozen=True)
class OptimizerConfig:
    q: int = 1
    max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 0
    init: str = "endpoint-projection"  # or "seeded-random"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.init not in ("endpoint-projection", "seeded-random"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class ColorTable:
    m: int
    q: int
    col: np.ndarray

    def __post_init__(self):
        if self.col.shape != (self.m, self.q):
            raise ValueError("color table shape mismatch")
        if (self.col < 0).any() or (self.col > 1).any():
            raise ValueError("color table entries must lie in [0, 1]")
        self.col.setflags(write=False)


@dataclass(frozen=True)
class OptimizeResult:
    embedding: ColorEmbedding
    stress: float
    n_iters: int
    stop_reason: str  # "tolerance", "max_iters" or "stress_increase"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"


def _stress_pass(y: np.ndarray, w_up: np.ndarray, d: np.ndarray, by=None) -> float:
    """Stress of the embedding y; adds B(Y) Y into `by` when it is given.

    `w_up` holds w_ij + w_ji at i < j and 0 elsewhere, which reproduces the
    sum over ordered pairs because d is symmetric. One pass over upper row
    blocks (`upper_row_blocks`), so no M x M temporary is made. Row i of
    B(Y) Y is the sum over j of c_ij (y_i - y_j), c_ij = w_ij d_ij / delta_ij
    (0 where the distance delta_ij is 0); each block adds its pairs to both
    of their rows.
    """
    total = 0.0
    for lo, hi in upper_row_blocks(len(y)):
        w_b = w_up[lo:hi, lo:]
        d_b = d[lo:hi, lo:]
        delta = distances(y[lo:hi], y[lo:])
        r = np.subtract(d_b, delta)
        r *= r
        r *= w_b
        total += r.sum()
        if by is not None:
            c = np.divide(d_b, delta, out=delta, where=delta > 0)
            c *= w_b
            by[lo:hi] += c.sum(axis=1)[:, None] * y[lo:hi] - c @ y[lo:]
            by[lo:] += c.sum(axis=0)[:, None] * y[lo:] - c.T @ y[lo:hi]
    return float(total)


def stress(y: ColorEmbedding, w: BundleWeightMatrix, d: DissimilarityMatrix) -> float:
    """Weighted squared mismatch between dissimilarities and embedding distances.

    The sum runs over all ordered pairs i != j; asymmetric weights enter
    both directions as-is, and d is symmetric.
    """
    if not (y.m == w.m == d.m):
        raise ValueError(f"dimension mismatch: y={y.m}, w={w.m}, d={d.m}")
    return _stress_pass(y.y, np.triu(w.weights + w.weights.T, 1), d.d)


def _components(adj: np.ndarray) -> np.ndarray:
    """Connected-component label of every vertex of the graph `adj`."""
    m = len(adj)
    label = np.full(m, -1)
    n = 0
    for start in range(m):
        if label[start] >= 0:
            continue
        members = np.zeros(m, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~members
            members |= frontier
        label[members] = n
        n += 1
    return label


def _prepare(w: BundleWeightMatrix):
    """Symmetrized weights w_ij + w_ji at i < j (the `w_up` of
    `_stress_pass`), and V+, the pseudo-inverse of their Laplacian V.

    With u the smallest pair weight, V = u (M I - J) + L_R, L_R being the
    Laplacian of the residual weights w_sym - u. On centered vectors, and
    B(Y) Y is one, V acts as u M I + L_R, which is block-diagonal by the
    components of the residual graph. Each component of c edges thus gets
    the inverse of its block u M I + L_k; when u = 0 that block is singular
    along its constant vector, so J_k / c is added before the inverse and
    subtracted after it, as for the pseudo-inverse.

    V+ is a list of (idx, inv): idx (n, c) holds, in ascending order, the
    edges of the n components of size c, and inv (n, c, c) their inverses.
    """
    m = w.m
    w_sym = w.weights + w.weights.T
    # The diagonal enters neither the stress nor V; setting it to u keeps
    # it out of the residual graph.
    np.fill_diagonal(w_sym, np.inf)
    u = float(w_sym.min()) if m > 1 else 0.0
    np.fill_diagonal(w_sym, u)
    adj = w_sym > u
    if not u > 0 and not adj.any():
        raise OptimizationError("all weights are zero; nothing to optimize")
    label = _components(adj)
    del adj
    sizes = np.bincount(label)
    largest = int(sizes.max())
    need = m * m * RESIDENT_BYTES_PER_PAIR + largest * largest * INVERSE_BYTES_PER_PAIR
    if need > DENSE_BUDGET:
        raise OptimizationError(
            f"{largest} of the {m} edges form one bundle component; inverting "
            f"its block would need about {need / 1e9:.1f} GB"
        )
    size = sizes[label]
    order = np.lexsort((label, size))
    v_plus = []
    for c in np.unique(size):
        idx = order[size[order] == c].reshape(-1, c)
        block = w_sym[idx[:, :, None], idx[:, None, :]] - u
        diag = np.arange(c)
        block[:, diag, diag] = 0.0
        degree = block.sum(axis=2)
        np.negative(block, out=block)
        block[:, diag, diag] = degree + u * m
        if u == 0:
            block += 1.0 / c
        inv = np.linalg.inv(block)
        if u == 0:
            inv -= 1.0 / c
        v_plus.append((idx, inv))
    for i in range(m):
        w_sym[i, : i + 1] = 0.0
    return w_sym, v_plus


def _smacof_step(y: np.ndarray, w_up: np.ndarray, d: np.ndarray, v_plus):
    """The stress of y and its Guttman transform V+ B(Y) Y, from one pass
    over the pairs; the transform never increases the stress."""
    by = np.zeros_like(y)
    s = _stress_pass(y, w_up, d, by)
    y_next = np.empty_like(by)
    for idx, inv in v_plus:
        y_next[idx] = inv @ by[idx]
    return s, y_next


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
) -> ColorEmbedding:
    """Starting point: projected edge midpoints, or seeded Gaussian noise.

    Projected midpoints of distinct edges can coincide; such ties are
    broken by the midpoint's other coordinate, then by the edge's
    endpoints (see `_break_ties`).
    """
    if cfg.init == "seeded-random":
        rng = np.random.default_rng(cfg.seed)
        return ColorEmbedding(m=m, q=cfg.q, y=rng.standard_normal((m, cfg.q)))

    if layout is None:
        raise OptimizationError("endpoint-projection init requires the layout")
    ends = layout.ends
    mids = (ends[:, 0] + ends[:, 1]) / 2.0
    if cfg.q == 1:
        y = mids[:, [0]]
    elif cfg.q == 2:
        y = mids
    else:
        y = np.column_stack([mids[:, 0], mids[:, 1], mids[:, 0] + mids[:, 1]])
    # Edges that share a midpoint differ in their half-vector h, up to its
    # sign; hx², hy² and hx·hy tell them apart and ignore endpoint order.
    hx, hy = ((ends[:, 1] - ends[:, 0]) / 2.0).T
    keys = np.column_stack([hx * hx, hy * hy, hx * hy])
    if cfg.q == 1:
        keys = np.column_stack([mids[:, 1], keys])
    return ColorEmbedding(m=m, q=cfg.q, y=_break_ties(_standardize(y), _standardize(keys)))


def optimize(
    w: BundleWeightMatrix,
    d: DissimilarityMatrix,
    cfg: OptimizerConfig,
    layout: GraphLayout | None = None,
) -> OptimizeResult:
    """Iterate majorization steps until the relative stress decrease stalls."""
    if w.m != d.m:
        raise ValueError(f"dimension mismatch: w={w.m}, d={d.m}")
    w_up, v_plus = _prepare(w)
    y = initial_embedding(w.m, cfg, layout).y
    s_prev, y_next = _smacof_step(y, w_up, d.d, v_plus)
    n_iters = 0
    stop_reason = "max_iters"
    for _ in range(cfg.max_iters):
        y = y_next
        n_iters += 1
        s, y_next = _smacof_step(y, w_up, d.d, v_plus)
        if (s_prev - s) / max(s_prev, _TINY) < cfg.rel_tol:
            # A rise within the rounding error of the M*M-term stress sum is
            # noise. That sum's scale, sum of w d^2, is the stress of the
            # embedding collapsed to one point.
            scale = _stress_pass(np.zeros((w.m, 1)), w_up, d.d)
            noise = w.m * w.m * np.finfo(float).eps * scale
            stop_reason = "stress_increase" if s - s_prev > noise else "tolerance"
            s_prev = s
            break
        s_prev = s
    return OptimizeResult(
        embedding=ColorEmbedding(m=w.m, q=cfg.q, y=y),
        stress=s_prev,
        n_iters=n_iters,
        stop_reason=stop_reason,
    )


def normalize_colors(y: ColorEmbedding, w: BundleWeightMatrix) -> ColorTable:
    """Rescale each edge against its bundle neighborhood into [0, 1].

    The neighborhood of edge i is i itself plus every edge bundled with
    it in either direction; each output dimension is min-max mapped over
    the neighborhood. Edges with no bundle partners fall back to the
    global min-max; a dimension with no spread maps to 0.5.
    """
    if y.m != w.m:
        raise ValueError(f"dimension mismatch: y={y.m}, w={w.m}")
    sym_flag = w.bundled_flag | w.bundled_flag.T
    alone = ~sym_flag.any(axis=1)
    np.fill_diagonal(sym_flag, True)
    lo = np.empty_like(y.y)
    hi = np.empty_like(y.y)
    for dim in range(y.q):
        # Row i of `values` is all of column dim; the mask keeps i's neighborhood.
        values = np.broadcast_to(y.y[:, dim], (y.m, y.m))
        lo[:, dim] = values.min(axis=1, where=sym_flag, initial=np.inf)
        hi[:, dim] = values.max(axis=1, where=sym_flag, initial=-np.inf)
    lo[alone] = y.y.min(axis=0)
    hi[alone] = y.y.max(axis=0)
    span = hi - lo
    col = np.divide(y.y - lo, span, out=np.full_like(y.y, 0.5), where=span > 0)
    return ColorTable(m=y.m, q=y.q, col=np.clip(col, 0.0, 1.0))


# Fixed gradient for 1-D colorings: blue -> red -> yellow.
_GRADIENT = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])


def colors_to_display(col: ColorTable) -> np.ndarray:
    """Map the normalized table to RGB triples in [0, 1]^3."""
    if col.q == 3:
        return col.col.copy()
    if col.q == 2:
        rgb = np.zeros((col.m, 3))
        rgb[:, 0] = col.col[:, 0]
        rgb[:, 2] = col.col[:, 1]
        return rgb
    v = col.col[:, [0]]
    lower = v <= 0.5
    a = np.where(lower, v / 0.5, (v - 0.5) / 0.5)
    g0 = np.where(lower, _GRADIENT[0], _GRADIENT[1])
    g1 = np.where(lower, _GRADIENT[1], _GRADIENT[2])
    return (1 - a) * g0 + a * g1

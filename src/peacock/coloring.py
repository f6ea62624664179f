"""Color optimization: weighted stress minimization plus normalization.

The embedding places every edge in a 1- to 3-dimensional color space so
that distances between bundled edges match their endpoint
dissimilarities; non-bundled pairs enter with the tradeoff weight. The
optimizer is SMACOF stress majorization, so the cost never increases
across iterations. Afterwards every edge's value is rescaled against its
bundle neighborhood so each bundle spans the full color range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundling import BundleWeightMatrix
from .dissimilarity import DissimilarityMatrix, distances
from .model import GraphLayout

_TINY = 1e-30


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


def _stress(weights: np.ndarray, d: np.ndarray, delta: np.ndarray) -> float:
    r = np.subtract(d, delta)
    r *= r
    r *= weights
    return float(r.sum())


def stress(y: ColorEmbedding, w: BundleWeightMatrix, d: DissimilarityMatrix) -> float:
    """Weighted squared mismatch between dissimilarities and embedding distances.

    The sum runs over all ordered pairs; asymmetric weights enter both
    directions as-is.
    """
    if not (y.m == w.m == d.m):
        raise ValueError(f"dimension mismatch: y={y.m}, w={w.m}, d={d.m}")
    return _stress(w.weights, d.d, distances(y.y, y.y))


def _guttman_update(
    y: np.ndarray, delta: np.ndarray, w_sym: np.ndarray, v_plus: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """The Guttman transform V+ B(Y) Y, where `delta` holds the distances of y."""
    b = np.divide(d, delta, out=np.zeros_like(delta), where=delta > 0)
    b *= w_sym
    np.negative(b, out=b)
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=1))
    return v_plus @ (b @ y)


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
    """Symmetrized weights and V+, the pseudo-inverse of their Laplacian V.

    P averages over each connected component of the weight graph (P = J/M
    when epsilon > 0). V + P is nonsingular and V+ = (V + P)^-1 - P for
    any epsilon, including partnerless edges, whose rows of V are zero; so
    one LU inverse stands in for an SVD.
    """
    # SMACOF needs symmetric weights; w_ij + w_ji reproduces the ordered
    # double sum exactly.
    w_sym = w.weights + w.weights.T
    adj = w_sym > 0
    if not adj.any():
        raise OptimizationError("all weights are zero; nothing to optimize")
    label = _components(adj)
    del adj
    same = label[:, None] == label[None, :]
    p_row = (1.0 / np.bincount(label)[label])[:, None]
    v = np.negative(w_sym)
    v.flat[:: w.m + 1] += w_sym.sum(axis=1)
    np.add(v, p_row, out=v, where=same)
    v_plus = np.linalg.inv(v)
    np.subtract(v_plus, p_row, out=v_plus, where=same)
    return w_sym, v_plus


def smacof_step(
    y: ColorEmbedding, w: BundleWeightMatrix, d: DissimilarityMatrix
) -> ColorEmbedding:
    """One majorization update; never increases the stress."""
    if not (y.m == w.m == d.m):
        raise ValueError(f"dimension mismatch: y={y.m}, w={w.m}, d={d.m}")
    w_sym, v_plus = _prepare(w)
    y_next = _guttman_update(y.y, distances(y.y, y.y), w_sym, v_plus, d.d)
    return ColorEmbedding(m=y.m, q=y.q, y=y_next)


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
    w_sym, v_plus = _prepare(w)
    emb = initial_embedding(w.m, cfg, layout)
    # One distance matrix per iterate: it gives that iterate's stress and
    # then the next Guttman update.
    delta = distances(emb.y, emb.y)
    s_prev = _stress(w.weights, d.d, delta)
    n_iters = 0
    stop_reason = "max_iters"
    for _ in range(cfg.max_iters):
        emb = ColorEmbedding(
            m=w.m, q=cfg.q, y=_guttman_update(emb.y, delta, w_sym, v_plus, d.d)
        )
        n_iters += 1
        delta = distances(emb.y, emb.y)
        s = _stress(w.weights, d.d, delta)
        if (s_prev - s) / max(s_prev, _TINY) < cfg.rel_tol:
            # A rise within the rounding error of the M*M-term stress sum is noise.
            noise = w.m * w.m * np.finfo(float).eps * float((w.weights * d.d**2).sum())
            stop_reason = "stress_increase" if s - s_prev > noise else "tolerance"
            s_prev = s
            break
        s_prev = s
    return OptimizeResult(embedding=emb, stress=s_prev, n_iters=n_iters, stop_reason=stop_reason)


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

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
from .dissimilarity import DissimilarityMatrix
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


def _pairwise_distances(y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of y, as one M x M array.

    Squared differences are added one coordinate at a time, the order in
    which `(diff * diff).sum(axis=2)` adds them, with no (M, M, q) tensor.
    """
    delta = np.subtract.outer(y[:, 0], y[:, 0])
    delta *= delta
    if y.shape[1] > 1:
        diff = np.empty_like(delta)
        for k in range(1, y.shape[1]):
            np.subtract.outer(y[:, k], y[:, k], out=diff)
            diff *= diff
            delta += diff
    return np.sqrt(delta, out=delta)


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
    return _stress(w.weights, d.d, _pairwise_distances(y.y))


def _guttman_update(
    y: np.ndarray, delta: np.ndarray, w_sym: np.ndarray, v_pinv: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """The Guttman transform V+ B(Y) Y, where `delta` holds the distances of y."""
    b = np.divide(d, delta, out=np.zeros_like(delta), where=delta > 0)
    b *= w_sym
    np.negative(b, out=b)
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=1))
    return v_pinv @ (b @ y)


def _prepare(w: BundleWeightMatrix):
    # SMACOF needs symmetric weights; w_ij + w_ji reproduces the ordered
    # double sum exactly.
    w_sym = w.weights + w.weights.T
    if not (w_sym > 0).any():
        raise OptimizationError("all weights are zero; nothing to optimize")
    v = np.diag(w_sym.sum(axis=1)) - w_sym
    return w_sym, np.linalg.pinv(v)


def smacof_step(
    y: ColorEmbedding, w: BundleWeightMatrix, d: DissimilarityMatrix
) -> ColorEmbedding:
    """One majorization update; never increases the stress."""
    if not (y.m == w.m == d.m):
        raise ValueError(f"dimension mismatch: y={y.m}, w={w.m}, d={d.m}")
    w_sym, v_pinv = _prepare(w)
    y_next = _guttman_update(y.y, _pairwise_distances(y.y), w_sym, v_pinv, d.d)
    return ColorEmbedding(m=y.m, q=y.q, y=y_next)


def initial_embedding(
    m: int,
    cfg: OptimizerConfig,
    layout: GraphLayout | None = None,
) -> ColorEmbedding:
    """Starting point: projected edge midpoints, or seeded Gaussian noise."""
    if cfg.init == "seeded-random":
        rng = np.random.default_rng(cfg.seed)
        return ColorEmbedding(m=m, q=cfg.q, y=rng.standard_normal((m, cfg.q)))

    if layout is None:
        raise OptimizationError("endpoint-projection init requires the layout")
    mids = np.array(
        [
            [(e.v1.x + e.v2.x) / 2.0, (e.v1.y + e.v2.y) / 2.0]
            for e in layout.edges
        ]
    )
    if cfg.q == 1:
        y = mids[:, [0]]
    elif cfg.q == 2:
        y = mids.copy()
    else:
        y = np.column_stack([mids[:, 0], mids[:, 1], mids[:, 0] + mids[:, 1]])
    mean = y.mean(axis=0)
    std = y.std(axis=0)
    std[std == 0] = 1.0
    return ColorEmbedding(m=m, q=cfg.q, y=(y - mean) / std)


def optimize(
    w: BundleWeightMatrix,
    d: DissimilarityMatrix,
    cfg: OptimizerConfig,
    layout: GraphLayout | None = None,
) -> OptimizeResult:
    """Iterate majorization steps until the relative stress decrease stalls."""
    if w.m != d.m:
        raise ValueError(f"dimension mismatch: w={w.m}, d={d.m}")
    w_sym, v_pinv = _prepare(w)
    emb = initial_embedding(w.m, cfg, layout)
    # One distance matrix per iterate: it gives that iterate's stress and
    # then the next Guttman update.
    delta = _pairwise_distances(emb.y)
    s_prev = _stress(w.weights, d.d, delta)
    n_iters = 0
    stop_reason = "max_iters"
    for _ in range(cfg.max_iters):
        emb = ColorEmbedding(
            m=w.m, q=cfg.q, y=_guttman_update(emb.y, delta, w_sym, v_pinv, d.d)
        )
        n_iters += 1
        delta = _pairwise_distances(emb.y)
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

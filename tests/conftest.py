"""Shared test helpers: random layouts and independent oracles.

The oracles here are deliberately naive re-implementations of the
detection rule and the stress cost, kept independent of the production
code paths they check.
"""

import math

import numpy as np
import pytest

from peacock.bundling import BundleWeightMatrix, _detect
from peacock.dissimilarity import packed_size, upper_row_blocks
from peacock.model import GraphLayout


def make_layout(edges, nodes=()):
    """The layout whose edge i is the i-th (v1, v2, controls) tuple: two
    [x, y] endpoints and a list of [x, y] control points."""
    edges = list(edges)
    return GraphLayout(
        points=np.array([p for _, _, controls in edges for p in controls], dtype=float),
        offsets=np.cumsum([0] + [len(controls) for _, _, controls in edges]),
        ends=np.array([(v1, v2) for v1, v2, _ in edges], dtype=float),
        nodes=nodes,
    )


def edges_of(layout):
    """The (v1, v2, controls) tuple of each edge, as arrays, in id order."""
    o = layout.offsets
    return [
        (v1, v2, layout.points[o[i] : o[i + 1]])
        for i, (v1, v2) in enumerate(layout.ends)
    ]


def random_layout(rng, m=None, max_controls=12, span=100.0):
    """A layout of m random polyline edges inside a span x span box."""
    if m is None:
        m = int(rng.integers(2, 41))
    edges = []
    for _ in range(m):
        c = int(rng.integers(1, max_controls + 1))
        pts = rng.uniform(0, span, size=(c + 2, 2))
        edges.append((pts[0], pts[1], pts[2:]))
    return make_layout(edges)


def weight_matrix(flags):
    """The weight matrix flagging the off-diagonal True entries of `flags`,
    merged as detection's ordered codes i * M + j are."""
    flags = np.array(flags, dtype=bool)
    np.fill_diagonal(flags, False)
    return BundleWeightMatrix.from_ordered(len(flags), [np.flatnonzero(flags)],
                                           np.zeros(0, dtype=bool))


def random_instance(rng, m, q):
    """(y, w, d) of m edges: about 30% of the ordered pairs flagged, the
    distances between m random points as d, and a Gaussian embedding y."""
    flags = rng.random((m, m)) < 0.3
    np.fill_diagonal(flags, False)
    pts = rng.uniform(0, 10, size=(m, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    w = weight_matrix(flags)
    y = rng.standard_normal((m, q))
    return y, w, d


def gaussian_start(seed, m, q):
    """An (m, q) start of standard Gaussian noise drawn with `seed`."""
    return np.random.default_rng(seed).standard_normal((m, q))


def within(p, q, t):
    """Whether the points p and q lie within t, tested as detection tests
    it: dx^2 + dy^2 <= t^2. `math.dist` can round a distance just beyond t
    down to t."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy <= t * t


def oracle_detect(pi, pj, t, k_ij):
    """Direct evaluation of the run-of-close-control-points rule on the
    control points of edges i and j."""
    near = [any(within(p, q, t) for q in pj) for p in pi]
    c_i = len(pi)
    for r0 in range(c_i - k_ij + 1):
        if all(near[r0 + r] for r in range(k_ij)):
            return True
    return False


def oracle_first_run(pi, pj, t, k_ij):
    """(start, end) of the first maximal run of at least k_ij of the
    control points pi within t of the control points pj, traced point by
    point; None if there is none."""
    near = [any(within(p, q, t) for q in pj) for p in pi]
    r = 0
    while r < len(near):
        if not near[r]:
            r += 1
            continue
        end = r
        while end + 1 < len(near) and near[end + 1]:
            end += 1
        if end - r + 1 >= k_ij:
            return (r, end)
        r = end + 1
    return None


def oracle_fans(start, end, c_i):
    """(fan_in, fan_out) of the run (start, end) on an edge of c_i controls:
    the segment, numbered by its first control, that enters the run and
    the one that leaves it; None where the run touches that end of the edge."""
    return (start - 1 if start > 0 else None, end if end < c_i - 1 else None)


def oracle_run_length(c_i, c_j, k_min):
    """k_ij = max(1, floor(max(c_i, c_j) * k_min))."""
    return max(1, math.floor(max(c_i, c_j) * k_min))


def oracle_flags(layout, t, k_min):
    m = layout.m
    controls = [c for _, _, c in edges_of(layout)]
    flags = np.zeros((m, m), dtype=bool)
    for i, ci in enumerate(controls):
        for j, cj in enumerate(controls):
            if i == j:
                continue
            k_ij = oracle_run_length(len(ci), len(cj), k_min)
            flags[i, j] = oracle_detect(ci, cj, t, k_ij)
    return flags


def detect_flags(layout, t, k_min):
    """The M x M boolean matrix of the ordered pairs that detection flags,
    read from the codes i * M + j of its batches before any merge."""
    flags = np.zeros((layout.m, layout.m), dtype=bool)
    for code, _, _ in _detect(layout.points, layout.offsets, t, k_min):
        flags.flat[code] = True
    return flags


def dense_flags(w):
    """The M x M boolean matrix of a weight matrix's flagged ordered pairs."""
    flags = np.zeros((w.m, w.m), dtype=bool)
    flags[w.a, w.b] = w.ways != 2
    flags[w.b, w.a] = w.ways != 1
    return flags


def dense_weights(w, epsilon):
    """The M x M weights: 1 where flagged, epsilon elsewhere, 0 on the
    diagonal."""
    weights = np.where(dense_flags(w), 1.0, epsilon)
    np.fill_diagonal(weights, 0.0)
    return weights


def runs_by_pair(layout, t, k_min):
    """{(i, j): (start, end)} of every pair that detection flags, from the
    batches of `peacock.bundling._detect`, as control indices on edge i."""
    runs, o = {}, layout.offsets.tolist()
    for code, first, last in _detect(layout.points, layout.offsets, t, k_min):
        for c, p, q in zip(code.tolist(), first.tolist(), last.tolist()):
            i, j = divmod(c, layout.m)
            runs[i, j] = (p - o[i], q - o[i])
    return runs


def oracle_stress(y, weights, d):
    """Naive double loop over ordered pairs."""
    m = len(y)
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            dist = math.dist(y[i], y[j])
            total += weights[i][j] * (d[i][j] - dist) ** 2
    return total


def oracle_normalize_colors(y, flags):
    """Per-edge, per-dimension min-max over the edge and its partners in
    either direction (global min-max for an edge without partners); a
    dimension spanning at most 1e-9 of its global span maps to 0.5."""
    m, q = y.shape
    col = np.empty((m, q))
    for i in range(m):
        members = [i] + [j for j in range(m) if flags[i][j] or flags[j][i]]
        rows = range(m) if len(members) == 1 else members
        for dim in range(q):
            lo = min(y[r, dim] for r in rows)
            hi = max(y[r, dim] for r in rows)
            noise = 1e-9 * (max(y[:, dim]) - min(y[:, dim]))
            col[i, dim] = 0.5 if hi - lo <= noise else (y[i, dim] - lo) / (hi - lo)
    return np.clip(col, 0.0, 1.0)


def oracle_gradient(values, stops):
    """Piecewise-linear blend over three stops at 0, 0.5 and 1, one value
    at a time."""
    rgb = np.empty((len(values), 3))
    for i, v in enumerate(values):
        if v <= 0.5:
            a = v / 0.5
            rgb[i] = (1 - a) * stops[0] + a * stops[1]
        else:
            a = (v - 0.5) / 0.5
            rgb[i] = (1 - a) * stops[1] + a * stops[2]
    return rgb


def oracle_dissimilarity(layout):
    """Endpoint dissimilarities through (M, M, 2) difference tensors and
    `np.linalg.norm`."""
    v1 = layout.ends[:, 0, :]
    v2 = layout.ends[:, 1, :]

    def norm(a, b):
        return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)

    d = np.minimum(norm(v1, v1) + norm(v2, v2), norm(v1, v2) + norm(v2, v1))
    np.fill_diagonal(d, 0.0)
    return d


def pack(dense):
    """The packed form that `build_dissimilarity_matrix` gives of the
    symmetric (M, M) dissimilarities `dense`: its upper row blocks."""
    m = len(dense)
    d = np.empty(packed_size(m))
    for lo, hi, flat in upper_row_blocks(m):
        d[flat] = dense[lo:hi, lo:].ravel()
    return d


def unpack(d, m):
    """The (M, M) matrix of the packed dissimilarities d of m edges: each
    stored entry where it belongs, and each entry below a block's diagonal
    square mirrored from above it."""
    assert d.shape == (packed_size(m),)
    dense = np.empty((m, m))
    for lo, hi, flat in upper_row_blocks(m):
        block = d[flat].reshape(hi - lo, m - lo)
        dense[lo:hi, lo:] = block
        dense[hi:, lo:hi] = block[:, hi - lo:].T
    return dense


def oracle_prepare(w, d, epsilon):
    """A stand-in for `peacock.coloring._prepare`, from the packed d
    unpacked: u, the smallest symmetrized weight, one block of all M edges
    holding the SVD pseudo-inverse of the Laplacian V, and the pairs i < j
    whose dense residual weight is positive, with those weights and their
    d."""
    d = unpack(d, w.m)
    w_sym = dense_weights(w, epsilon) + dense_weights(w, epsilon).T
    v = np.diag(w_sym.sum(axis=1)) - w_sym
    u = w_sym[~np.eye(w.m, dtype=bool)].min() if w.m > 1 else 0.0
    res = np.triu(w_sym - u, 1)
    a, b = np.nonzero(res > 0)
    blocks = [(np.arange(w.m)[None, :], np.linalg.pinv(v)[None])]
    return u, blocks, (a, b, res[a, b], d[a, b])


def oracle_smacof_step(y, w, d, epsilon):
    """One Guttman transform V+ B(Y) Y through dense M x M matrices and the
    SVD pseudo-inverse of V."""
    w_sym = dense_weights(w, epsilon) + dense_weights(w, epsilon).T
    v = np.diag(w_sym.sum(axis=1)) - w_sym
    delta = np.linalg.norm(y[:, None, :] - y[None, :, :], axis=2)
    b = -w_sym * np.divide(d, delta, out=np.zeros_like(delta), where=delta > 0)
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=1))
    return np.linalg.pinv(v) @ (b @ y)


def oracle_optimize(y, w, d, epsilon, max_iters, rel_tol):
    """Accelerated SMACOF over `oracle_smacof_step` and `oracle_stress`:
    (embedding, stress, transforms, stop reason).

    Each accepted iterate y0 is followed by y1 = G(y0), itself accepted.
    While three more transforms remain, y2 = G(y1) and the S3 step length
    a = |y1 - y0| / |y2 - 2 y1 + y0|, clamped to [1, cap] (the cap starts
    at 1 and grows fourfold whenever a reaches it), give y' = y0 +
    2 a (y1 - y0) + a^2 (y2 - 2 y1 + y0), or y2 itself at a = 1; G(y') is
    accepted if its stress is at most that of y1, else y2. Transforms are
    counted as stress evaluations after the first: G(y') costs one, its
    stress one more, and y2's stress one unless y' was y2.
    """
    weights = dense_weights(w, epsilon)
    noise = w.m * w.m * np.finfo(float).eps * (weights * d * d).sum()
    s, n, cap = oracle_stress(y, weights, d), 0, 1.0

    def stalls(s_next):
        return (s - s_next) / max(s, 1e-30) < rel_tol

    def stop(y_next, s_next):
        return y_next, s_next, n, "stress_increase" if s_next - s > noise else "tolerance"

    while n < max_iters:
        y1 = oracle_smacof_step(y, w, d, epsilon)
        s1 = oracle_stress(y1, weights, d)
        n += 1
        if stalls(s1):
            return stop(y1, s1)
        if max_iters - n < 3:
            y, s = y1, s1
            continue
        y2 = oracle_smacof_step(y1, w, d, epsilon)
        r, v = y1 - y, y2 - 2.0 * y1 + y
        norm_r, norm_v = np.linalg.norm(r), np.linalg.norm(v)
        a = cap if norm_r >= cap * norm_v else max(1.0, norm_r / norm_v)
        if a == cap:
            cap *= 4.0
        jump = y2 if a == 1.0 else y + 2.0 * a * r + a * a * v
        y_new = oracle_smacof_step(jump, w, d, epsilon)
        s_new = oracle_stress(y_new, weights, d)
        n += 2
        if s_new > s1:
            y_new, s_new = y2, oracle_stress(y2, weights, d)
            n += a != 1.0
        y, s = y1, s1
        if stalls(s_new):
            return stop(y_new, s_new)
        y, s = y_new, s_new
    return y, s, n, "max_iters"


def oracle_projection_init(layout, q):
    """Standardized projected midpoints, then half-lengths, with no
    tie-breaking; where all half-lengths agree to 1e-9 of the largest, the
    squared x half-extent replaces them."""
    cols = [[(v1[0] + v2[0]) / 2.0, (v1[1] + v2[1]) / 2.0,
             math.hypot(v2[0] - v1[0], v2[1] - v1[1]) / 2.0] for v1, v2 in layout.ends]
    lengths = [c[2] for c in cols]
    if max(lengths) - min(lengths) <= 1e-9 * max(lengths):
        for c, (v1, v2) in zip(cols, layout.ends):
            hx = (v2[0] - v1[0]) / 2.0
            c[2] = hx * hx
    y = np.array(cols)[:, :q]
    std = y.std(axis=0)
    std[std == 0] = 1.0
    return (y - y.mean(axis=0)) / std


def rigid_transform(layout, angle, dx, dy):
    """The same rotation + translation applied to every point."""
    ca, sa = math.cos(angle), math.sin(angle)

    def move(x, y):
        return (ca * x - sa * y + dx, sa * x + ca * y + dy)

    edges = [(move(*v1), move(*v2), [move(*p) for p in c]) for v1, v2, c in edges_of(layout)]
    return make_layout(edges, nodes=[(nid, *move(x, y)) for nid, x, y in layout.nodes])


@pytest.fixture(scope="session")
def ordered_fixture():
    from peacock.fixtures import make_ordered_bundles

    return make_ordered_bundles(6, 6, reverse_last=True, seed=0)

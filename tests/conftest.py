"""Shared test helpers: random layouts and independent oracles.

The oracles here are deliberately naive re-implementations of the
detection rule and the stress cost, kept independent of the production
code paths they check.
"""

import math

import numpy as np
import pytest

from peacock.bundling import required_run_length
from peacock.model import EdgeCurve, GraphLayout, Point2


def random_layout(rng, m=None, max_controls=12, span=100.0):
    """A layout of m random polyline edges inside a span x span box."""
    if m is None:
        m = int(rng.integers(2, 41))
    edges = []
    for i in range(m):
        c = int(rng.integers(1, max_controls + 1))
        pts = rng.uniform(0, span, size=(c + 2, 2))
        edges.append(
            EdgeCurve(
                id=i,
                v1=Point2(*pts[0]),
                v2=Point2(*pts[1]),
                controls=tuple(Point2(*p) for p in pts[2:]),
            )
        )
    return GraphLayout(edges=tuple(edges))


def oracle_detect(edge_i, edge_j, t, k_ij):
    """Direct evaluation of the run-of-close-control-points rule."""
    pi = edge_i.control_array()
    pj = edge_j.control_array()
    near = []
    for r in range(len(pi)):
        dmin = min(math.dist(pi[r], pj[s]) for s in range(len(pj)))
        near.append(dmin <= t)
    c_i = len(pi)
    for r0 in range(c_i - k_ij + 1):
        if all(near[r0 + r] for r in range(k_ij)):
            return True
    return False


def oracle_first_run(edge_i, edge_j, t, k_ij):
    """(start, end) of the first maximal run of at least k_ij controls of
    edge i within t of edge j, traced point by point; None if there is none."""
    near = [
        min(math.dist(p, q) for q in edge_j.control_array()) <= t
        for p in edge_i.control_array()
    ]
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


def oracle_flags(layout, t, k_min):
    m = layout.m
    flags = np.zeros((m, m), dtype=bool)
    for i, ei in enumerate(layout.edges):
        for j, ej in enumerate(layout.edges):
            if i == j:
                continue
            k_ij = required_run_length(ei.n_controls, ej.n_controls, k_min)
            flags[i, j] = oracle_detect(ei, ej, t, k_ij)
    return flags


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
    dimension with no spread maps to 0.5."""
    m, q = y.shape
    col = np.empty((m, q))
    for i in range(m):
        members = [i] + [j for j in range(m) if flags[i][j] or flags[j][i]]
        rows = range(m) if len(members) == 1 else members
        for dim in range(q):
            lo = min(y[r, dim] for r in rows)
            hi = max(y[r, dim] for r in rows)
            col[i, dim] = 0.5 if hi - lo <= 0 else (y[i, dim] - lo) / (hi - lo)
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
    ends = np.array([e.endpoint_array() for e in layout.edges])
    v1 = ends[:, 0, :]
    v2 = ends[:, 1, :]

    def norm(a, b):
        return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)

    d = np.minimum(norm(v1, v1) + norm(v2, v2), norm(v1, v2) + norm(v2, v1))
    np.fill_diagonal(d, 0.0)
    return d


def oracle_prepare(w):
    """Symmetrized weights and the SVD pseudo-inverse of their Laplacian;
    a stand-in for `peacock.coloring._prepare`."""
    w_sym = w.weights + w.weights.T
    v = np.diag(w_sym.sum(axis=1)) - w_sym
    return w_sym, np.linalg.pinv(v)


def oracle_projection_init(layout, q):
    """Standardized projected midpoints, with no tie-breaking."""
    mids = np.array(
        [[(e.v1.x + e.v2.x) / 2.0, (e.v1.y + e.v2.y) / 2.0] for e in layout.edges]
    )
    y = [mids[:, [0]], mids, np.column_stack([mids[:, 0], mids[:, 1], mids.sum(axis=1)])][q - 1]
    std = y.std(axis=0)
    std[std == 0] = 1.0
    return (y - y.mean(axis=0)) / std


def rigid_transform(layout, angle, dx, dy):
    """The same rotation + translation applied to every point."""
    ca, sa = math.cos(angle), math.sin(angle)

    def move(p):
        return Point2(ca * p.x - sa * p.y + dx, sa * p.x + ca * p.y + dy)

    edges = tuple(
        EdgeCurve(
            id=e.id,
            v1=move(e.v1),
            v2=move(e.v2),
            controls=tuple(move(p) for p in e.controls),
        )
        for e in layout.edges
    )
    nodes = tuple((nid, move(p)) for nid, p in layout.nodes)
    return GraphLayout(edges=edges, nodes=nodes)


@pytest.fixture(scope="session")
def ordered_fixture():
    from peacock.fixtures import make_ordered_bundles

    return make_ordered_bundles(6, 6, reverse_last=True, seed=0)

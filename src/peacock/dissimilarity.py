"""Endpoint dissimilarities between edges.

The dissimilarity of two edges is the smaller of the two ways of pairing
their endpoints, each pairing scored by the sum of Euclidean endpoint
distances. Edges connecting nearby node pairs come out similar no matter
which way around their endpoints are stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EdgeCurve, GraphLayout


@dataclass(frozen=True)
class DissimilarityMatrix:
    m: int
    d: np.ndarray

    def __post_init__(self):
        if self.d.shape != (self.m, self.m):
            raise ValueError("matrix shape mismatch")
        self.d.setflags(write=False)


def endpoint_dissimilarity(edge_i: EdgeCurve, edge_j: EdgeCurve) -> float:
    a1 = np.array([edge_i.v1.x, edge_i.v1.y])
    a2 = np.array([edge_i.v2.x, edge_i.v2.y])
    b1 = np.array([edge_j.v1.x, edge_j.v1.y])
    b2 = np.array([edge_j.v2.x, edge_j.v2.y])
    straight = np.linalg.norm(a1 - b1) + np.linalg.norm(a2 - b2)
    crossed = np.linalg.norm(a1 - b2) + np.linalg.norm(a2 - b1)
    return float(min(straight, crossed))


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and the rows of b.

    Squared differences are added one coordinate at a time, the order in
    which `np.linalg.norm(a[:, None] - b[None], axis=2)` adds them, with no
    (len(a), len(b), q) tensor.
    """
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    if a.shape[1] > 1:
        diff = np.empty_like(out)
        for k in range(1, a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=diff)
            diff *= diff
            out += diff
    return np.sqrt(out, out=out)


def build_dissimilarity_matrix(layout: GraphLayout) -> DissimilarityMatrix:
    v1 = layout.ends[:, 0, :]
    v2 = layout.ends[:, 1, :]
    d = distances(v1, v1)
    d += distances(v2, v2)
    # |v2_i - v1_j| equals |v1_j - v2_i| bit for bit, so the crossed
    # pairing is one distance matrix plus its transpose.
    crossed = distances(v1, v2)
    np.minimum(d, crossed + crossed.T, out=d)
    np.fill_diagonal(d, 0.0)
    return DissimilarityMatrix(m=layout.m, d=d)

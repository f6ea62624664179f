"""Endpoint dissimilarities between edges.

The dissimilarity of two edges is the smaller of the two ways of pairing
their endpoints, each pairing scored by the sum of Euclidean endpoint
distances. Edges connecting nearby node pairs come out similar no matter
which way around their endpoints are stored. `build_dissimilarity_matrix`
returns them as one read-only (M, M) array.
"""

from __future__ import annotations

import numpy as np

from .model import GraphLayout

# Bytes of one float64 block temporary in a row-blocked pass over an M x M
# matrix, so that a block's few temporaries stay in a core's L2 cache. Of
# 64 KiB to 4 MiB, 256 KiB gave the fastest SMACOF step at M = 500 to 2000
# on a Xeon with 2 MiB of L2 per core.
BLOCK_BUDGET = 1 << 18


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances (k, l) between the rows of a (k, q) and the rows
    of b (l, q).

    Squared differences are added one coordinate at a time, the order in
    which `np.linalg.norm` over the last axis of a difference tensor adds
    them, with no (k, l, q) tensor. In one dimension the distance is
    |a - b|, which equals the square root of its square bit for bit as
    long as the square neither overflows nor underflows.
    """
    out = np.subtract(a[:, None, 0], b[None, :, 0])
    if a.shape[1] == 1:
        return np.abs(out, out=out)
    out *= out
    diff = np.empty_like(out)
    for k in range(1, a.shape[1]):
        np.subtract(a[:, None, k], b[None, :, k], out=diff)
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


def upper_row_blocks(m: int):
    """(start, stop) of consecutive row blocks of an M x M matrix whose
    upper part, columns start..M-1, fits in BLOCK_BUDGET (or is one row)."""
    start = 0
    while start < m:
        stop = min(m, start + max(1, BLOCK_BUDGET // (8 * (m - start))))
        yield start, stop
        start = stop


def build_dissimilarity_matrix(layout: GraphLayout) -> np.ndarray:
    """The read-only (M, M) dissimilarities, symmetric with a zero diagonal.

    The matrix is built from its upper row blocks and mirrored: every
    distance is a sum of squared differences, and (a - b)^2 == (b - a)^2, so
    each entry equals its transpose bit for bit."""
    v1 = layout.ends[:, 0, :]
    v2 = layout.ends[:, 1, :]
    d = np.empty((layout.m, layout.m))
    for lo, hi in upper_row_blocks(layout.m):
        block = distances(v1[lo:hi], v1[lo:])
        block += distances(v2[lo:hi], v2[lo:])
        crossed = distances(v1[lo:hi], v2[lo:])
        crossed += distances(v2[lo:hi], v1[lo:])
        np.minimum(block, crossed, out=block)
        d[lo:hi, lo:] = block
        d[lo:, lo:hi] = block.T
    np.fill_diagonal(d, 0.0)
    d.setflags(write=False)
    return d

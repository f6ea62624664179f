"""Endpoint dissimilarities between edges.

The dissimilarity of two edges is the smaller of the two ways of pairing
their endpoints, each pairing scored by the sum of Euclidean endpoint
distances. Edges connecting nearby node pairs come out similar no matter
which way around their endpoints are stored. `build_dissimilarity_matrix`
returns them packed, as the upper row blocks of their symmetric matrix.
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
    """(start, stop, flat) of consecutive row blocks of an M x M matrix whose
    upper part, columns start..M-1, fits in BLOCK_BUDGET (or is one row);
    packed, these parts follow each other, each in its slice `flat`."""
    start = end = 0
    while start < m:
        stop = min(m, start + max(1, BLOCK_BUDGET // (8 * (m - start))))
        begin, end = end, end + (stop - start) * (m - start)
        yield start, stop, slice(begin, end)
        start = stop


def packed_size(m: int) -> int:
    """The length of the packed dissimilarities of m edges."""
    return sum(flat.stop - flat.start for *_, flat in upper_row_blocks(m))


def build_dissimilarity_matrix(layout: GraphLayout) -> np.ndarray:
    """The dissimilarities as one flat read-only array of the packed upper
    row blocks (`upper_row_blocks`), for `coloring.optimize`. A block's
    diagonal square is symmetric with a zero diagonal bit for bit, since
    (a - b)^2 == (b - a)^2."""
    v1, v2 = layout.ends.transpose(1, 0, 2)
    m = layout.m
    d = np.empty(packed_size(m))
    for lo, hi, flat in upper_row_blocks(m):
        block = d[flat].reshape(hi - lo, m - lo)
        step = -(-(hi - lo) // 4)  # four slabs, whose temporaries take one block
        for r in range(0, hi - lo, step):
            rows = slice(lo + r, min(hi, lo + r + step))
            same = distances(v1[rows], v1[lo:])
            same += distances(v2[rows], v2[lo:])
            crossed = distances(v1[rows], v2[lo:])
            crossed += distances(v2[rows], v1[lo:])
            np.minimum(same, crossed, out=block[r : r + step])
    d.setflags(write=False)
    return d

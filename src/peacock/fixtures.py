"""Synthetic bundled layouts with known ground truth.

The generators emit pre-bundled curves directly: every edge of a bundle
follows the same corridor of waypoints, jittered slightly, so that
intra-bundle detection is guaranteed by construction and corridors of
different bundles stay well separated (except where crossings are
intended). Node dissimilarities within a bundle grow strictly with the
connection order, which is what the color tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundling import DetectionParams
from .model import GraphLayout, layout_extent

DEFAULT_T_FRAC = DetectionParams.t_frac
DEFAULT_K_MIN = DetectionParams.k_min

_RADIUS = 100.0
_NODE_SPACING = 4.0


@dataclass(frozen=True)
class FixtureResult:
    """A generated layout plus the ground truth the generator guarantees."""

    layout: GraphLayout
    bundles: list[list[int]]      # edge ids per bundle
    order: list[list[int]]        # rank of each edge within its bundle
    expected_flags: np.ndarray    # directional detection ground truth
    t: float                      # absolute threshold the truth holds at
    k_min: float

    def ground_truth_dict(self) -> dict:
        return {"bundles": self.bundles, "order": self.order}


def _corridor(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    steps = np.linspace(0.0, 1.0, n)[:, None]
    return a[None, :] * (1 - steps) + b[None, :] * steps


def _layout(ends, controls, nodes) -> GraphLayout:
    """The layout whose edge i has endpoints `ends[i]` and control points `controls[i]`."""
    return GraphLayout(
        points=np.concatenate(controls),
        offsets=np.cumsum([0] + [len(c) for c in controls]),
        ends=np.array(ends),
        nodes=nodes,
    )


def make_ordered_bundles(
    groups: int, edges_per_bundle: int, reverse_last: bool = False, seed: int = 0
) -> FixtureResult:
    """Parallel bundles between paired node groups on a circle.

    Adjacent groups on the circle are paired so corridors never cross.
    Edge k of a bundle connects source node k to target node k; with
    `reverse_last` the final bundle connects source k to target n-1-k.

    The reversed bundle's truth order k can disagree with the paper's
    undirected endpoint dissimilarity: its first and last edges join
    nearly the same node pair with the endpoints swapped. At 80 groups of
    25 edges, a 1-D coloring folds that bundle (bundle 39) into a V, and
    unfolding it by hand and re-optimizing folds it again. That bundle's
    colors then fail a rank-correlation test against k, which keeps the
    share of bundles that pass below 1.0; this is the fixture, not an
    optimizer defect, so do not tune the optimizer toward 1.0 on it.
    """
    if groups < 2 or groups % 2 != 0:
        raise ValueError("groups must be even and >= 2")
    if edges_per_bundle < 2:
        raise ValueError("edges_per_bundle must be >= 2")

    rng = np.random.default_rng(seed)
    n = edges_per_bundle
    n_bundles = groups // 2

    centers = []
    tangents = []
    for g in range(groups):
        a = 2 * math.pi * g / groups
        centers.append(np.array([_RADIUS * math.cos(a), _RADIUS * math.sin(a)]))
        tangents.append(np.array([-math.sin(a), math.cos(a)]))

    def node_pos(g: int, k: int) -> np.ndarray:
        return centers[g] + tangents[g] * (k - (n - 1) / 2) * _NODE_SPACING

    # Jitter scale from the nominal extent; the final resolved threshold
    # differs only marginally, and detection margins are wide.
    t_nominal = DEFAULT_T_FRAC * (2 * _RADIUS + (n - 1) * _NODE_SPACING)
    amp = t_nominal / 8

    nodes, ends, controls = [], [], []
    bundles: list[list[int]] = []
    order: list[list[int]] = []
    for b in range(n_bundles):
        src_g, dst_g = 2 * b, 2 * b + 1
        waypoints = _corridor(centers[src_g], centers[dst_g], 10)
        reverse = reverse_last and b == n_bundles - 1
        ids = []
        ranks = []
        for k in range(n):
            dst_k = (n - 1 - k) if reverse else k
            ends.append((node_pos(src_g, k), node_pos(dst_g, dst_k)))
            controls.append(waypoints + rng.uniform(-amp, amp, size=waypoints.shape))
            ids.append(b * n + k)
            ranks.append(k)
        bundles.append(ids)
        order.append(ranks)

    for g in range(groups):
        for k in range(n):
            nodes.append((f"g{g}n{k}", *node_pos(g, k).tolist()))

    layout = _layout(ends, controls, nodes)
    label = np.repeat(np.arange(n_bundles), n)  # edge b * n + k is in bundle b
    flags = label[:, None] == label[None, :]
    np.fill_diagonal(flags, False)

    w, h = layout_extent(layout)
    return FixtureResult(
        layout=layout,
        bundles=bundles,
        order=order,
        expected_flags=flags,
        t=DEFAULT_T_FRAC * max(w, h),
        k_min=DEFAULT_K_MIN,
    )


def make_crossing_bundles(
    bundles: int, edges_per_bundle: int = 5, seed: int = 0
) -> FixtureResult:
    """Straight corridors through a shared central region.

    Each bundle is a spoke through the origin; all corridors put a few
    consecutive controls right at the center, so every cross-bundle pair
    is flagged there while the outer corridor arms stay far apart.
    """
    if bundles < 2:
        raise ValueError("bundles must be >= 2")
    if edges_per_bundle < 2:
        raise ValueError("edges_per_bundle must be >= 2")

    rng = np.random.default_rng(seed)
    n = edges_per_bundle
    length = _RADIUS
    t = DEFAULT_T_FRAC * 2 * length
    amp = t / 10

    nodes, ends, controls = [], [], []
    bundle_ids: list[list[int]] = []
    order: list[list[int]] = []
    for b in range(bundles):
        a = math.pi * b / bundles
        direction = np.array([math.cos(a), math.sin(a)])
        tangent = np.array([-math.sin(a), math.cos(a)])
        # 4 outer waypoints per arm plus 4 central ones inside radius t/4;
        # with k_min=0.4 a run of exactly 4 of the 12 controls is required.
        central = np.array([s * direction for s in (-1.5, -0.5, 0.5, 1.5)]) * (t / 6)
        outer_in = np.array([r * direction for r in np.linspace(-length, -0.3 * length, 4)])
        outer_out = np.array([r * direction for r in np.linspace(0.3 * length, length, 4)])
        waypoints = np.vstack([outer_in, central, outer_out])

        ids = []
        ranks = []
        for k in range(n):
            off = tangent * (k - (n - 1) / 2) * _NODE_SPACING
            src = -length * direction + off
            dst = length * direction + off
            ends.append((src, dst))
            controls.append(waypoints + rng.uniform(-amp, amp, size=waypoints.shape))
            nodes.append((f"b{b}s{k}", *src.tolist()))
            nodes.append((f"b{b}t{k}", *dst.tolist()))
            ids.append(b * n + k)
            ranks.append(k)
        bundle_ids.append(ids)
        order.append(ranks)

    layout = _layout(ends, controls, nodes)
    m = layout.m
    flags = np.ones((m, m), dtype=bool)  # every pair meets in the center
    np.fill_diagonal(flags, False)
    return FixtureResult(
        layout=layout,
        bundles=bundle_ids,
        order=order,
        expected_flags=flags,
        t=t,
        k_min=DEFAULT_K_MIN,
    )

"""Data model for bundled graph layouts and the JSON layout file format.

A layout is a set of edge curves on screen: each edge has two endpoint
coordinates (where its nodes sit) and an ordered polyline of control
points describing the bundled curve. The geometry is held as read-only
arrays, so downstream stages can share layouts freely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class LayoutError(Exception):
    """Base class for layout ingestion problems."""


class LayoutParseError(LayoutError):
    """The file is not valid JSON or misses required keys."""


class LayoutValidationError(LayoutError):
    """The file parsed but violates a layout invariant."""


@dataclass(frozen=True, eq=False)
class GraphLayout:
    """All edges of one bundled layout, as arrays every stage computes on.

    Edge i's control points are rows `offsets[i]:offsets[i + 1]` of
    `points` (N, 2), each edge having at least one; `ends[i]` holds its
    two endpoints (M, 2, 2). `nodes` holds (id, x, y) tuples, and
    `extent` is (min_x, min_y, max_x, max_y) over every endpoint and
    control point. The arrays are copies, read-only and finite.
    """

    points: np.ndarray
    offsets: np.ndarray
    ends: np.ndarray
    nodes: tuple[tuple[str, float, float], ...] = ()
    extent: tuple[float, float, float, float] = field(init=False, repr=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        offsets = np.array(self.offsets, dtype=np.int64)
        ends = np.array(self.ends, dtype=float)
        if offsets.ndim != 1 or len(offsets) < 2:
            raise LayoutValidationError("layout has no edges")
        m = len(offsets) - 1
        if points.shape != (offsets[-1], 2) or offsets[0] != 0 or ends.shape != (m, 2, 2):
            raise LayoutValidationError(
                f"points {points.shape}, offsets ({m + 1},) and ends {ends.shape} "
                "are not (N, 2), 0..N and (M, 2, 2)"
            )
        empty = np.flatnonzero(np.diff(offsets) < 1)
        if empty.size:
            raise LayoutValidationError(f"edge {empty[0]}: empty control list")
        _check_finite(points, offsets, ends)
        for nid, x, y in self.nodes:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise LayoutValidationError(f"node {nid}: non-finite coordinate in position")
        for name, a in (("points", points), ("offsets", offsets), ("ends", ends)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "nodes", tuple(self.nodes))
        lo = np.minimum(points.min(axis=0), ends.min(axis=(0, 1)))
        hi = np.maximum(points.max(axis=0), ends.max(axis=(0, 1)))
        object.__setattr__(self, "extent", tuple(lo.tolist() + hi.tolist()))

    @property
    def m(self) -> int:
        return len(self.offsets) - 1


def _check_finite(points, offsets, ends) -> None:
    """Raise naming the first edge, and its first point, that is not finite."""
    bad_ends = ~np.isfinite(ends).all(axis=2)
    bad_points = ~np.isfinite(points).all(axis=1)
    if not (bad_ends.any() or bad_points.any()):
        return
    bad_edges = bad_ends.any(axis=1) | np.logical_or.reduceat(bad_points, offsets[:-1])
    i = int(np.argmax(bad_edges))
    if bad_ends[i].any():
        what = ("v1", "v2")[int(np.argmax(bad_ends[i]))]
    else:
        what = f"controls[{np.argmax(bad_points[offsets[i] : offsets[i + 1]])}]"
    raise LayoutValidationError(f"edge {i}: non-finite coordinate in {what}")


def layout_extent(layout: GraphLayout) -> tuple[float, float]:
    """Width and height of the layout's bounding box."""
    min_x, min_y, max_x, max_y = layout.extent
    return (max_x - min_x, max_y - min_y)


def _is_number(v) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _xy(raw, where, what) -> tuple[float, float]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise LayoutParseError(f"{where}: {what} is not an [x, y] pair")
    x, y = raw
    if not (_is_number(x) and _is_number(y)):
        raise LayoutParseError(f"{where}: {what} has non-numeric coordinate")
    try:
        return float(x), float(y)
    except OverflowError:  # a JSON integer beyond the float range
        raise LayoutValidationError(f"{where}: coordinate in {what} is too large") from None


def layout_from_dict(doc: dict) -> GraphLayout:
    if not isinstance(doc, dict) or "edges" not in doc:
        raise LayoutParseError("document must be an object with an 'edges' array")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list) or not raw_edges:
        raise LayoutParseError("'edges' must be a non-empty array")

    # Per edge, in file order: its id and its points, v1 and v2 first.
    ids, curves = [], []
    for raw in raw_edges:
        if not isinstance(raw, dict) or "id" not in raw:
            raise LayoutParseError("edge entry missing 'id'")
        eid = raw["id"]
        if not isinstance(eid, int) or isinstance(eid, bool):
            raise LayoutParseError(f"edge id {eid!r} is not an integer")
        controls = raw.get("controls")
        if not isinstance(controls, list) or not controls:
            raise LayoutValidationError(f"edge {eid}: empty control list")
        where = f"edge {eid}"
        curve = [_xy(raw.get("v1"), where, "v1"), _xy(raw.get("v2"), where, "v2")]
        curve += [_xy(c, where, f"controls[{k}]") for k, c in enumerate(controls)]
        ids.append(eid)
        curves.append(curve)

    # Ids become row indices only once they are known to be 0..M-1.
    m, s = len(ids), sorted(ids)
    if s != list(range(m)):
        dup = next((a for a, b in zip(s, s[1:]) if a == b), None)
        if dup is not None:
            raise LayoutValidationError(f"duplicate edge id {dup}")
        raise LayoutValidationError(f"edge ids must be 0..{m - 1} with no gaps")
    by_id = [None] * m
    for eid, curve in zip(ids, curves):
        by_id[eid] = curve

    raw_nodes = doc.get("nodes", [])
    if not isinstance(raw_nodes, list):
        raise LayoutParseError("'nodes' must be an array")
    nodes = []
    for raw in raw_nodes:
        if not isinstance(raw, dict) or "id" not in raw:
            raise LayoutParseError("node entry missing 'id'")
        nid = str(raw["id"])
        nodes.append((nid, *_xy([raw.get("x"), raw.get("y")], f"node {nid}", "position")))

    return GraphLayout(
        points=np.array([p for curve in by_id for p in curve[2:]]),
        offsets=np.cumsum([0] + [len(curve) - 2 for curve in by_id]),
        ends=np.array([curve[:2] for curve in by_id]),
        nodes=nodes,
    )


def load_layout(path) -> GraphLayout:
    """Read and validate a layout file (see layout_to_dict for the schema)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise LayoutParseError(f"{path}: {exc}") from exc
    return layout_from_dict(doc)


def layout_to_dict(layout: GraphLayout) -> dict:
    doc: dict = {}
    if layout.nodes:
        doc["nodes"] = [{"id": nid, "x": x, "y": y} for nid, x, y in layout.nodes]
    points, ends, o = layout.points.tolist(), layout.ends.tolist(), layout.offsets.tolist()
    doc["edges"] = [
        {"id": i, "v1": v1, "v2": v2, "controls": points[o[i] : o[i + 1]]}
        for i, (v1, v2) in enumerate(ends)
    ]
    return doc


def save_layout(layout: GraphLayout, path) -> None:
    with open(path, "w") as fh:
        json.dump(layout_to_dict(layout), fh, indent=1)
        fh.write("\n")

"""Data model for bundled graph layouts and the JSON layout file format.

A layout is a set of edge curves on screen: each edge has two endpoint
coordinates (where its nodes sit) and an ordered polyline of control
points describing the bundled curve. Everything is immutable after
construction so downstream stages can share layouts freely.
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


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise LayoutValidationError(f"non-finite coordinate ({self.x}, {self.y})")


@dataclass(frozen=True)
class EdgeCurve:
    """One edge: endpoints plus the ordered control points of its curve."""

    id: int
    v1: Point2
    v2: Point2
    controls: tuple[Point2, ...]

    def __post_init__(self):
        if len(self.controls) < 1:
            raise LayoutValidationError(f"edge {self.id}: empty control list")

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def control_array(self) -> np.ndarray:
        """Control points as an (C_i, 2) float array."""
        return np.array([(p.x, p.y) for p in self.controls], dtype=float)

    def endpoint_array(self) -> np.ndarray:
        return np.array([(self.v1.x, self.v1.y), (self.v2.x, self.v2.y)], dtype=float)


@dataclass(frozen=True)
class GraphLayout:
    """All edges of one bundled layout, with their geometry stacked once.

    Edge ids are 0..M-1 and index into `edges` directly. The read-only
    arrays are what every stage computes on: `points` (N, 2) holds all
    control points edge after edge, `offsets` (M + 1) delimits each
    edge's points, and `ends` (M, 2, 2) holds each edge's endpoints.
    `extent` is (min_x, min_y, max_x, max_y) over every endpoint and
    control point.
    """

    edges: tuple[EdgeCurve, ...]
    nodes: tuple[tuple[str, Point2], ...] = ()
    points: np.ndarray = field(init=False, compare=False, repr=False)
    offsets: np.ndarray = field(init=False, compare=False, repr=False)
    ends: np.ndarray = field(init=False, compare=False, repr=False)
    extent: tuple[float, float, float, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.edges) < 1:
            raise LayoutValidationError("layout has no edges")
        ids = [e.id for e in self.edges]
        if ids != list(range(len(self.edges))):
            seen = set()
            for i in ids:
                if i in seen:
                    raise LayoutValidationError(f"duplicate edge id {i}")
                seen.add(i)
            raise LayoutValidationError(
                f"edge ids must be 0..{len(self.edges) - 1} with no gaps"
            )
        points, offsets, ends = _stack(self.edges)
        for name, a in (("points", points), ("offsets", offsets), ("ends", ends)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "extent", _extent(points, ends))

    @property
    def m(self) -> int:
        return len(self.edges)


def _stack(edges):
    """Control points (N, 2), per-edge offsets (M + 1) and endpoints (M, 2, 2)."""
    offsets = np.cumsum([0] + [e.n_controls for e in edges])
    # Coordinates stream in one at a time: a list of per-point tuples
    # would leave about 100 B per point of Python heap behind.
    points = np.fromiter(
        (c for e in edges for p in e.controls for c in (p.x, p.y)), float, 2 * offsets[-1]
    ).reshape(-1, 2)
    ends = np.fromiter(
        (c for e in edges for c in (e.v1.x, e.v1.y, e.v2.x, e.v2.y)), float, 4 * len(edges)
    ).reshape(-1, 2, 2)
    return points, offsets, ends


def _extent(points, ends) -> tuple[float, float, float, float]:
    lo = np.minimum(points.min(axis=0), ends.min(axis=(0, 1)))
    hi = np.maximum(points.max(axis=0), ends.max(axis=(0, 1)))
    return tuple(lo.tolist() + hi.tolist())


def compute_extent(edges) -> tuple[float, float, float, float]:
    points, _, ends = _stack(edges)
    return _extent(points, ends)


def layout_extent(layout: GraphLayout) -> tuple[float, float]:
    """Width and height of the layout's bounding box."""
    min_x, min_y, max_x, max_y = layout.extent
    return (max_x - min_x, max_y - min_y)


def _is_number(v) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _point_from_pair(raw, where, what) -> Point2:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise LayoutParseError(f"{where}: {what} is not an [x, y] pair")
    x, y = raw
    if not (_is_number(x) and _is_number(y)):
        raise LayoutParseError(f"{where}: {what} has non-numeric coordinate")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise LayoutValidationError(f"{where}: non-finite coordinate in {what}")
    return Point2(float(x), float(y))


def layout_from_dict(doc: dict) -> GraphLayout:
    if not isinstance(doc, dict) or "edges" not in doc:
        raise LayoutParseError("document must be an object with an 'edges' array")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list) or not raw_edges:
        raise LayoutParseError("'edges' must be a non-empty array")

    edges = []
    for raw in raw_edges:
        if not isinstance(raw, dict) or "id" not in raw:
            raise LayoutParseError("edge entry missing 'id'")
        eid = raw["id"]
        if not isinstance(eid, int) or isinstance(eid, bool):
            raise LayoutParseError(f"edge id {eid!r} is not an integer")
        controls_raw = raw.get("controls")
        if not isinstance(controls_raw, list) or not controls_raw:
            raise LayoutValidationError(f"edge {eid}: empty control list")
        edges.append(
            EdgeCurve(
                id=eid,
                v1=_point_from_pair(raw.get("v1"), f"edge {eid}", "v1"),
                v2=_point_from_pair(raw.get("v2"), f"edge {eid}", "v2"),
                controls=tuple(
                    _point_from_pair(c, f"edge {eid}", f"controls[{k}]")
                    for k, c in enumerate(controls_raw)
                ),
            )
        )
    edges.sort(key=lambda e: e.id)

    nodes = []
    for raw in doc.get("nodes", []) or []:
        if not isinstance(raw, dict) or "id" not in raw:
            raise LayoutParseError("node entry missing 'id'")
        nid = str(raw["id"])
        nodes.append((nid, _point_from_pair([raw.get("x"), raw.get("y")], f"node {nid}", "position")))

    return GraphLayout(edges=tuple(edges), nodes=tuple(nodes))


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
        doc["nodes"] = [{"id": nid, "x": p.x, "y": p.y} for nid, p in layout.nodes]
    doc["edges"] = [
        {
            "id": e.id,
            "v1": [e.v1.x, e.v1.y],
            "v2": [e.v2.x, e.v2.y],
            "controls": [[p.x, p.y] for p in e.controls],
        }
        for e in layout.edges
    ]
    return doc


def save_layout(layout: GraphLayout, path) -> None:
    with open(path, "w") as fh:
        json.dump(layout_to_dict(layout), fh, indent=1)
        fh.write("\n")

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_layout
from peacock.fixtures import make_ordered_bundles
from peacock.model import (
    GraphLayout,
    EdgeCurve,
    LayoutParseError,
    LayoutValidationError,
    Point2,
    compute_extent,
    layout_extent,
    layout_to_dict,
    load_layout,
    save_layout,
)


def write_doc(tmp_path, doc, name="layout.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_single_edge_readback(tmp_path):
    doc = {
        "edges": [
            {"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0], [1, 0]]}
        ]
    }
    layout = load_layout(write_doc(tmp_path, doc))
    assert layout.m == 1
    assert layout.extent == (0.0, 0.0, 1.0, 0.0)
    assert layout.edges[0].controls == (Point2(0, 0), Point2(1, 0))


def test_nan_coordinate_names_edge(tmp_path):
    doc = {
        "edges": [
            {"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]},
            {"id": 1, "v1": [0, 0], "v2": [float("nan"), 0], "controls": [[0, 0]]},
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace("NaN", "NaN"))
    with pytest.raises(LayoutValidationError, match="edge 1"):
        load_layout(path)


def test_empty_controls_rejected(tmp_path):
    doc = {"edges": [{"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": []}]}
    with pytest.raises(LayoutValidationError, match="edge 0"):
        load_layout(write_doc(tmp_path, doc))


def test_duplicate_edge_id_rejected(tmp_path):
    edge = {"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]}
    doc = {"edges": [edge, dict(edge)]}
    with pytest.raises(LayoutValidationError, match="duplicate edge id 0"):
        load_layout(write_doc(tmp_path, doc))


def test_id_gap_rejected(tmp_path):
    doc = {
        "edges": [
            {"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]},
            {"id": 2, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]},
        ]
    }
    with pytest.raises(LayoutValidationError, match="no gaps"):
        load_layout(write_doc(tmp_path, doc))


@pytest.mark.parametrize("eid", [False, True])
def test_boolean_edge_id_rejected(tmp_path, eid):
    doc = {"edges": [{"id": eid, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]}]}
    with pytest.raises(LayoutParseError, match="is not an integer"):
        load_layout(write_doc(tmp_path, doc))


def test_boolean_coordinate_rejected(tmp_path):
    doc = {"edges": [{"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[True, 1]]}]}
    with pytest.raises(LayoutParseError, match=r"edge 0: controls\[0\] has non-numeric"):
        load_layout(write_doc(tmp_path, doc))


@pytest.mark.parametrize("x", ["1", False, None])
def test_bad_node_error_names_node(tmp_path, x):
    doc = {
        "nodes": [{"id": "a", "x": x, "y": 0}],
        "edges": [{"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]}],
    }
    with pytest.raises(LayoutParseError, match="^node a: position has non-numeric"):
        load_layout(write_doc(tmp_path, doc))


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(LayoutParseError):
        load_layout(path)


def test_extent_simple():
    e = EdgeCurve(
        id=0, v1=Point2(0, 0), v2=Point2(2, 1), controls=(Point2(1, 0.5),)
    )
    assert layout_extent(GraphLayout(edges=(e,))) == (2.0, 1.0)


def test_extent_degenerate():
    e = EdgeCurve(id=0, v1=Point2(3, 3), v2=Point2(3, 3), controls=(Point2(3, 3),))
    assert layout_extent(GraphLayout(edges=(e,))) == (0.0, 0.0)


def test_extent_matches_brute_force_scan(ordered_fixture):
    layout = ordered_fixture.layout
    xs, ys = [], []
    for e in layout.edges:
        for p in (e.v1, e.v2, *e.controls):
            xs.append(p.x)
            ys.append(p.y)
    assert layout.extent == (min(xs), min(ys), max(xs), max(ys))
    assert layout.extent == compute_extent(layout.edges)


def test_fixture_roundtrip_byte_identical(tmp_path, ordered_fixture):
    layout = ordered_fixture.layout
    assert layout.m == 18
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_layout(layout, a)
    save_layout(load_layout(a), b)
    assert a.read_bytes() == b.read_bytes()
    assert layout_to_dict(load_layout(b)) == layout_to_dict(layout)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_stacked_arrays_match_edges(seed, m):
    layout = random_layout(np.random.default_rng(seed), m=m)
    edges = layout.edges
    assert np.array_equal(layout.points, np.concatenate([e.control_array() for e in edges]))
    assert list(layout.offsets) == [0, *np.cumsum([e.n_controls for e in edges])]
    assert np.array_equal(layout.ends, np.stack([e.endpoint_array() for e in edges]))
    for a in (layout.points, layout.offsets, layout.ends):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    xs = [p.x for e in edges for p in (e.v1, e.v2, *e.controls)]
    ys = [p.y for e in edges for p in (e.v1, e.v2, *e.controls)]
    assert layout.extent == (min(xs), min(ys), max(xs), max(ys))
    assert GraphLayout(edges=layout.edges, nodes=layout.nodes) == layout


def test_extent_is_not_an_init_argument():
    e = EdgeCurve(id=0, v1=Point2(0, 0), v2=Point2(1, 1), controls=(Point2(0, 0),))
    with pytest.raises(TypeError):
        GraphLayout(edges=(e,), extent=(0.0, 0.0, 5.0, 5.0))

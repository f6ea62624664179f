import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_layout, random_layout
from peacock.model import (
    GraphLayout,
    LayoutParseError,
    LayoutValidationError,
    layout_extent,
    layout_from_dict,
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
    assert layout.points.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert layout.offsets.tolist() == [0, 2]
    assert layout.ends.tolist() == [[[0.0, 0.0], [1.0, 0.0]]]


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
    layout = make_layout([((0, 0), (2, 1), [(1, 0.5)])])
    assert layout_extent(layout) == (2.0, 1.0)


def test_extent_degenerate():
    layout = make_layout([((3, 3), (3, 3), [(3, 3)])])
    assert layout_extent(layout) == (0.0, 0.0)


def brute_force_extent(doc):
    """(min_x, min_y, max_x, max_y) over every point of a layout document."""
    pts = [p for e in doc["edges"] for p in (e["v1"], e["v2"], *e["controls"])]
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    return (min(xs), min(ys), max(xs), max(ys))


def test_extent_matches_brute_force_scan(ordered_fixture):
    layout = ordered_fixture.layout
    assert layout.extent == brute_force_extent(layout_to_dict(layout))


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
    rng = np.random.default_rng(seed)
    edges = [
        (list(p[0]), list(p[1]), [list(c) for c in p[2:]])
        for p in (rng.uniform(-50, 50, size=(int(rng.integers(3, 15)), 2)) for _ in range(m))
    ]
    doc = {
        "edges": [
            {"id": i, "v1": a, "v2": b, "controls": c} for i, (a, b, c) in enumerate(edges)
        ]
    }
    layout = layout_from_dict(doc)
    assert layout.points.tolist() == [p for _, _, c in edges for p in c]
    assert layout.offsets.tolist() == [0, *np.cumsum([len(c) for _, _, c in edges]).tolist()]
    assert layout.ends.tolist() == [[a, b] for a, b, _ in edges]
    for a in (layout.points, layout.offsets, layout.ends):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert layout.extent == brute_force_extent(doc)
    assert layout_to_dict(layout) == doc
    # The constructor copies: the caller's arrays stay writable and apart.
    points = np.array(layout.points)
    again = GraphLayout(points=points, offsets=layout.offsets, ends=layout.ends)
    points[0] = np.inf
    assert points.flags.writeable and np.isfinite(again.points).all()


def test_extent_is_not_an_init_argument():
    with pytest.raises(TypeError):
        GraphLayout(
            points=[[0.0, 0.0]], offsets=[0, 1], ends=[[[0.0, 0.0], [1.0, 1.0]]],
            extent=(0.0, 0.0, 5.0, 5.0),
        )


def test_shuffled_edge_order_loads_same_arrays(tmp_path):
    doc = layout_to_dict(random_layout(np.random.default_rng(4), m=25))
    shuffled = dict(doc, edges=list(doc["edges"]))
    np.random.default_rng(5).shuffle(shuffled["edges"])
    assert [e["id"] for e in shuffled["edges"]] != list(range(25))
    a = load_layout(write_doc(tmp_path, doc, "sorted.json"))
    b = load_layout(write_doc(tmp_path, shuffled, "shuffled.json"))
    for name in ("points", "offsets", "ends"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_negative_id_rejected(tmp_path):
    edge = {"v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]}
    doc = {"edges": [dict(edge, id=-1), dict(edge, id=0)]}
    with pytest.raises(LayoutValidationError, match="must be 0..1 with no gaps"):
        load_layout(write_doc(tmp_path, doc))


@pytest.mark.parametrize("nodes", [5, {}, "ab", None])
def test_nodes_not_an_array_rejected(tmp_path, nodes):
    doc = {"nodes": nodes, "edges": [{"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]}]}
    with pytest.raises(LayoutParseError, match="'nodes' must be an array"):
        load_layout(write_doc(tmp_path, doc))


@pytest.mark.parametrize("where, what", [("v2", "v2"), ("controls", "controls[1]")])
def test_integer_beyond_float_range_names_edge(tmp_path, where, what):
    edge = {"id": 1, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0], [1, 0]]}
    if where == "v2":
        edge["v2"] = [10**400, 0]
    else:
        edge["controls"][1] = [0, -(10**400)]
    doc = {"edges": [{"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]}, edge]}
    message = rf"^edge 1: coordinate in {re.escape(what)} is too large"
    with pytest.raises(LayoutValidationError, match=message):
        load_layout(write_doc(tmp_path, doc))


def test_node_integer_beyond_float_range_names_node(tmp_path):
    doc = {
        "nodes": [{"id": "a", "x": 0, "y": 10**400}],
        "edges": [{"id": 0, "v1": [0, 0], "v2": [1, 0], "controls": [[0, 0]]}],
    }
    with pytest.raises(LayoutValidationError, match="^node a: coordinate in position is too large"):
        load_layout(write_doc(tmp_path, doc))


ENDS = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]]


@pytest.mark.parametrize(
    "points, offsets, ends, nodes, message",
    [
        ([[0, 0], [1, 1]], [0], [], (), "layout has no edges"),
        ([[0, 0], [1, 1]], [0, 0, 2], ENDS, (), r"^edge 0: empty control list"),
        ([[0, 0], [1, 1]], [0, 1, 3], ENDS, (), r"are not \(N, 2\), 0..N and \(M, 2, 2\)"),
        ([[0, 0], [1, 1]], [0, 1, 2], ENDS[:1], (), r"are not \(N, 2\)"),
        ([[0, 0], [1, 1], [1, 1]], [1, 2, 3], ENDS, (), r"are not \(N, 2\)"),
        ([[0, 0], [1, 1], [np.nan, 0]], [0, 1, 3], ENDS, (),
         r"^edge 1: non-finite coordinate in controls\[1\]"),
        ([[0, 0], [np.inf, 1]], [0, 1, 2], [ENDS[0], [[0, 1], [0, -np.inf]]], (),
         "^edge 1: non-finite coordinate in v2"),
        ([[0, 0], [1, 1]], [0, 1, 2], ENDS, (("a", 0.0, np.inf),),
         "^node a: non-finite coordinate in position"),
    ],
)
def test_constructor_validates(points, offsets, ends, nodes, message):
    with pytest.raises(LayoutValidationError, match=message):
        GraphLayout(points=points, offsets=offsets, ends=ends, nodes=nodes)


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_layout
from peacock.baseline import baseline_colors
from peacock.model import EdgeCurve, GraphLayout, Point2


def edge(eid, v1, v2):
    return EdgeCurve(
        id=eid, v1=Point2(*v1), v2=Point2(*v2), controls=(Point2(*v1), Point2(*v2))
    )


def naive_baseline(layout):
    """Independent recomputation of the two-step encoding."""
    raw = []
    for e in layout.edges:
        raw.append([min(e.v1.x, e.v2.x), 0.0, min(e.v1.y, e.v2.y)])
    raw = np.array(raw)
    out = np.empty_like(raw)
    for c in range(3):
        lo, hi = raw[:, c].min(), raw[:, c].max()
        out[:, c] = 0.5 if hi == lo else (raw[:, c] - lo) / (hi - lo)
    return out


def test_two_edge_min_endpoints():
    layout = GraphLayout(edges=(edge(0, (0, 0), (5, 5)), edge(1, (10, 10), (20, 20))))
    table = baseline_colors(layout)
    assert np.allclose(table.col[0], [0.0, 0.5, 0.0])
    assert np.allclose(table.col[1], [1.0, 0.5, 1.0])


def test_single_edge_degenerate():
    layout = GraphLayout(edges=(edge(0, (1, 2), (3, 4)),))
    assert np.allclose(baseline_colors(layout).col, [[0.5, 0.5, 0.5]])


def test_matches_independent_recomputation(ordered_fixture):
    table = baseline_colors(ordered_fixture.layout)
    assert np.allclose(table.col, naive_baseline(ordered_fixture.layout), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_equals_naive_recomputation_exactly(seed, m):
    layout = random_layout(np.random.default_rng(seed), m=m, max_controls=3)
    table = baseline_colors(layout)
    assert (table.m, table.q) == (layout.m, 3)
    assert np.array_equal(table.col, naive_baseline(layout))


def test_endpoint_swap_invariance(ordered_fixture):
    layout = ordered_fixture.layout
    swapped = GraphLayout(
        edges=tuple(
            EdgeCurve(id=e.id, v1=e.v2, v2=e.v1, controls=e.controls)
            for e in layout.edges
        ),
        nodes=layout.nodes,
    )
    assert np.array_equal(baseline_colors(layout).col, baseline_colors(swapped).col)


def test_entries_in_unit_interval(ordered_fixture):
    col = baseline_colors(ordered_fixture.layout).col
    assert (col >= 0).all() and (col <= 1).all()


def test_green_channel_constant(ordered_fixture):
    col = baseline_colors(ordered_fixture.layout).col
    assert (col[:, 1] == col[0, 1]).all()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edges_of, make_layout, random_layout
from peacock.baseline import baseline_colors


def edge(v1, v2):
    return (v1, v2, [v1, v2])


def swap_endpoints(layout):
    return make_layout(((v2, v1, c) for v1, v2, c in edges_of(layout)), nodes=layout.nodes)


def naive_baseline(layout):
    """Independent recomputation of the two-step encoding."""
    raw = []
    for (x1, y1), (x2, y2) in layout.ends.tolist():
        raw.append([min(x1, x2), 0.0, min(y1, y2)])
    raw = np.array(raw)
    out = np.empty_like(raw)
    for c in range(3):
        lo, hi = raw[:, c].min(), raw[:, c].max()
        out[:, c] = 0.5 if hi == lo else (raw[:, c] - lo) / (hi - lo)
    return out


def test_two_edge_min_endpoints():
    layout = make_layout([edge((0, 0), (5, 5)), edge((10, 10), (20, 20))])
    table = baseline_colors(layout)
    assert np.allclose(table[0], [0.0, 0.5, 0.0])
    assert np.allclose(table[1], [1.0, 0.5, 1.0])


def test_single_edge_degenerate():
    layout = make_layout([edge((1, 2), (3, 4))])
    assert np.allclose(baseline_colors(layout), [[0.5, 0.5, 0.5]])


def test_matches_independent_recomputation(ordered_fixture):
    table = baseline_colors(ordered_fixture.layout)
    assert np.allclose(table, naive_baseline(ordered_fixture.layout), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_equals_naive_recomputation_exactly(seed, m):
    layout = random_layout(np.random.default_rng(seed), m=m, max_controls=3)
    table = baseline_colors(layout)
    assert table.shape == (layout.m, 3)
    assert np.array_equal(table, naive_baseline(layout))


def test_endpoint_swap_invariance(ordered_fixture):
    layout = ordered_fixture.layout
    assert np.array_equal(baseline_colors(layout), baseline_colors(swap_endpoints(layout)))


def test_entries_in_unit_interval(ordered_fixture):
    col = baseline_colors(ordered_fixture.layout)
    assert (col >= 0).all() and (col <= 1).all()


def test_green_channel_constant(ordered_fixture):
    col = baseline_colors(ordered_fixture.layout)
    assert (col[:, 1] == col[0, 1]).all()

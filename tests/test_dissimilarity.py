import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import oracle_dissimilarity, rigid_transform

from peacock.dissimilarity import build_dissimilarity_matrix, endpoint_dissimilarity
from peacock.model import EdgeCurve, GraphLayout, Point2


def edge(eid, v1, v2):
    return EdgeCurve(
        id=eid, v1=Point2(*v1), v2=Point2(*v2), controls=(Point2(*v1), Point2(*v2))
    )


coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
point = st.tuples(coord, coord)


def test_identical_endpoints():
    assert endpoint_dissimilarity(edge(0, (1, 2), (3, 4)), edge(1, (1, 2), (3, 4))) == 0.0


def test_swapped_endpoints():
    assert endpoint_dissimilarity(edge(0, (1, 2), (3, 4)), edge(1, (3, 4), (1, 2))) == 0.0


def test_parallel_unit_edges():
    d = endpoint_dissimilarity(edge(0, (0, 0), (1, 0)), edge(1, (0, 1), (1, 1)))
    assert d == min(2.0, 2 * math.sqrt(2))
    assert d == 2.0


@given(point, point, point, point)
def test_symmetry_and_swap_invariance(a1, a2, b1, b2):
    ei = edge(0, a1, a2)
    ej = edge(1, b1, b2)
    d = endpoint_dissimilarity(ei, ej)
    assert d >= 0
    assert d == endpoint_dissimilarity(ej, ei)
    assert math.isclose(
        d, endpoint_dissimilarity(edge(0, a2, a1), ej), rel_tol=0, abs_tol=1e-9
    )


def test_single_edge_matrix():
    layout = GraphLayout(edges=(edge(0, (0, 0), (1, 0)),))
    dm = build_dissimilarity_matrix(layout)
    assert dm.d.shape == (1, 1)
    assert dm.d[0, 0] == 0.0


def test_two_parallel_edges_matrix():
    layout = GraphLayout(edges=(edge(0, (0, 0), (1, 0)), edge(1, (0, 1), (1, 1))))
    dm = build_dissimilarity_matrix(layout)
    assert dm.d[0, 1] == dm.d[1, 0] == 2.0


def test_fixture_matches_per_pair_oracle(ordered_fixture):
    layout = ordered_fixture.layout
    dm = build_dissimilarity_matrix(layout)
    for i, ei in enumerate(layout.edges):
        for j, ej in enumerate(layout.edges):
            want = endpoint_dissimilarity(ei, ej) if i != j else 0.0
            assert math.isclose(dm.d[i, j], want, rel_tol=1e-12, abs_tol=1e-12)
    assert np.allclose(dm.d, dm.d.T)
    assert (np.diag(dm.d) == 0).all()


def test_rigid_motion_invariance(ordered_fixture):
    before = build_dissimilarity_matrix(ordered_fixture.layout)
    moved = rigid_transform(ordered_fixture.layout, angle=1.1, dx=-5.0, dy=17.0)
    after = build_dissimilarity_matrix(moved)
    assert np.allclose(before.d, after.d, atol=1e-9)


# Repeated values give coincident and swapped endpoints.
lattice_point = st.tuples(st.sampled_from([-3.0, 0.0, 0.5, 2.0]) | coord,
                          st.sampled_from([-3.0, 0.0, 0.5, 2.0]) | coord)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(lattice_point, lattice_point), min_size=1, max_size=12))
def test_matrix_equals_norm_oracle(ends):
    layout = GraphLayout(edges=tuple(edge(i, a, b) for i, (a, b) in enumerate(ends)))
    assert np.array_equal(build_dissimilarity_matrix(layout).d, oracle_dissimilarity(layout))

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import make_layout, oracle_dissimilarity, random_layout, rigid_transform, unpack

from peacock.dissimilarity import build_dissimilarity_matrix, upper_row_blocks


def edge(v1, v2):
    return (v1, v2, [v1, v2])


def pair_dissimilarity(ei, ej):
    """Dissimilarity of edge ei against edge ej, through the matrix."""
    return unpack(build_dissimilarity_matrix(make_layout([ei, ej])), 2)[0, 1]


coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
point = st.tuples(coord, coord)


def test_identical_endpoints():
    assert pair_dissimilarity(edge((1, 2), (3, 4)), edge((1, 2), (3, 4))) == 0.0


def test_swapped_endpoints():
    assert pair_dissimilarity(edge((1, 2), (3, 4)), edge((3, 4), (1, 2))) == 0.0


def test_parallel_unit_edges():
    d = pair_dissimilarity(edge((0, 0), (1, 0)), edge((0, 1), (1, 1)))
    assert d == min(2.0, 2 * math.sqrt(2))
    assert d == 2.0


@given(point, point, point, point)
def test_symmetry_and_swap_invariance(a1, a2, b1, b2):
    ei = edge(a1, a2)
    ej = edge(b1, b2)
    d = pair_dissimilarity(ei, ej)
    assert d >= 0
    assert d == pair_dissimilarity(ej, ei)
    assert math.isclose(
        d, pair_dissimilarity(edge(a2, a1), ej), rel_tol=0, abs_tol=1e-9
    )


def test_single_edge_matrix():
    layout = make_layout([edge((0, 0), (1, 0))])
    dm = build_dissimilarity_matrix(layout)
    assert dm.shape == (1,)
    assert dm[0] == 0.0


def test_two_parallel_edges_matrix():
    layout = make_layout([edge((0, 0), (1, 0)), edge((0, 1), (1, 1))])
    dm = unpack(build_dissimilarity_matrix(layout), 2)
    assert dm[0, 1] == dm[1, 0] == 2.0


def test_fixture_matches_per_pair_oracle(ordered_fixture):
    layout = ordered_fixture.layout
    dm = unpack(build_dissimilarity_matrix(layout), layout.m)
    assert np.array_equal(dm, oracle_dissimilarity(layout))
    assert np.allclose(dm, dm.T)
    assert (np.diag(dm) == 0).all()


def test_rigid_motion_invariance(ordered_fixture):
    before = build_dissimilarity_matrix(ordered_fixture.layout)
    moved = rigid_transform(ordered_fixture.layout, angle=1.1, dx=-5.0, dy=17.0)
    after = build_dissimilarity_matrix(moved)
    assert np.allclose(before, after, atol=1e-9)


# Repeated values give coincident and swapped endpoints.
lattice_point = st.tuples(st.sampled_from([-3.0, 0.0, 0.5, 2.0]) | coord,
                          st.sampled_from([-3.0, 0.0, 0.5, 2.0]) | coord)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(lattice_point, lattice_point), min_size=1, max_size=12))
def test_matrix_equals_norm_oracle(ends):
    layout = make_layout(edge(a, b) for a, b in ends)
    d = build_dissimilarity_matrix(layout)
    assert np.array_equal(unpack(d, layout.m), oracle_dissimilarity(layout))


def test_packed_blocks_equal_the_oracle_at_m_1000():
    # 1000 edges span 17 row blocks; each stored entry, the diagonal squares'
    # lower halves included, is the oracle's bit for bit.
    layout = random_layout(np.random.default_rng(3), m=1000, max_controls=1)
    assert len(list(upper_row_blocks(layout.m))) == 17
    tracemalloc.start()
    try:
        d = build_dissimilarity_matrix(layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # An (M, M) matrix would take 8 M^2 bytes; the upper blocks take about half.
    assert d.ndim == 1 and not d.flags.writeable
    assert d.nbytes <= 0.55 * 8 * layout.m**2
    assert peak <= 0.6 * 8 * layout.m**2
    assert np.array_equal(unpack(d, layout.m), oracle_dissimilarity(layout))

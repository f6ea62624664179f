import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_detect,
    oracle_first_run,
    oracle_flags,
    random_layout,
    rigid_transform,
)

from peacock.bundling import (
    DetectionParams,
    ParameterError,
    build_weight_matrix,
    detect_pair,
    dump_bundled_pairs,
    near_pairs,
    required_run_length,
)
from peacock.model import EdgeCurve, GraphLayout, Point2


def make_edge(eid, points):
    pts = tuple(Point2(float(x), float(y)) for x, y in points)
    return EdgeCurve(id=eid, v1=pts[0], v2=pts[-1], controls=pts)


def neighbours(points, offsets, t, query):
    """Indices q with (query, q) among the near pairs."""
    out = set()
    for p, q in near_pairs(np.asarray(points, dtype=float), np.asarray(offsets), t):
        out.update(int(b) for b in q[p == query])
    return out


class TestRequiredRunLength:
    def test_paper_setting(self):
        assert required_run_length(10, 4, 0.4) == 4

    def test_floor_to_one(self):
        assert required_run_length(1, 1, 0.4) == 1

    def test_floor(self):
        assert required_run_length(7, 7, 0.4) == 2

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.integers(1, 30, size=2)
            k = rng.uniform(0.01, 1.0)
            assert required_run_length(a, b, k) == required_run_length(b, a, k)
            assert required_run_length(a, b, k) >= 1


class TestDetectPair:
    def test_identical_controls(self):
        e1 = make_edge(0, [(0, 0), (1, 0), (2, 0), (3, 0)])
        e2 = make_edge(1, [(0, 0), (1, 0), (2, 0), (3, 0)])
        assert detect_pair(e1, e2, t=0.5, k_ij=4)

    def test_all_far(self):
        e1 = make_edge(0, [(0, 0), (1, 0)])
        e2 = make_edge(1, [(0, 100), (1, 100)])
        assert not detect_pair(e1, e2, t=1.0, k_ij=1)

    def test_too_few_controls_is_false(self):
        e1 = make_edge(0, [(0, 0), (1, 0)])
        e2 = make_edge(1, [(0, 0), (1, 0)])
        assert not detect_pair(e1, e2, t=1.0, k_ij=3)

    def test_three_edge_configuration(self):
        # Edge 2 runs along y=0; edge 1 travels beside it at y=0.5 except
        # for a stray first control; edge 3 crosses edge 2 near x=6,
        # touching edge 1 nowhere and edge 2 over a run.
        e1 = make_edge(0, [(-2, 3), (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5)])
        e2 = make_edge(1, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)])
        e3 = make_edge(2, [(6, 1.6), (6, 0.8), (6, 0.0), (6, -0.8)])
        t, k = 1.0, 2
        expected = {
            (e1, e2): True,
            (e1, e3): False,
            (e2, e3): True,
            (e3, e1): False,
            (e2, e1): True,
            (e3, e2): True,
        }
        for (a, b), want in expected.items():
            assert detect_pair(a, b, t, k) == want
            assert oracle_detect(a, b, t, k) == want

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            layout = random_layout(rng, m=2, max_controls=8, span=10.0)
            e1, e2 = layout.edges
            t = rng.uniform(0.5, 5.0)
            k = int(rng.integers(1, 5))
            assert detect_pair(e1, e2, t, k) == oracle_detect(e1, e2, t, k)


class TestSpatialGrid:
    """`near_pairs`: edge 0 holds the points, each query point is an edge
    of its own."""

    def test_single_point_query(self):
        assert neighbours([(1, 1), (1, 1), (1, 1)], [0, 2, 3], 2.0, query=2) == {0, 1}

    def test_exact_filter_excludes_beyond_t(self):
        assert neighbours([(0, 0), (0, 0), (1.001, 0)], [0, 2, 3], 1.0, query=2) == set()
        assert 0 in neighbours([(0, 0), (0, 0), (1.0, 0)], [0, 2, 3], 1.0, query=2)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 50, size=(500, 2))
        queries = rng.uniform(-5, 55, size=(100, 2))
        t = 3.0
        points = np.vstack([pts, queries])
        offsets = np.concatenate([[0], np.arange(500, 601)])
        got = {k: set() for k in range(500, 600)}
        for p, q in near_pairs(points, offsets, t):
            for a, b in zip(p, q):
                if a >= 500 and b < 500:
                    got[int(a)].add(int(b))
        for n, q in enumerate(queries):
            want = {
                k
                for k, p in enumerate(pts)
                if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= t * t
            }
            assert got[500 + n] == want


class TestWeightMatrix:
    def test_epsilon_zero_no_bundles_gives_zero_matrix(self):
        layout = GraphLayout(
            edges=(make_edge(0, [(0, 0), (1, 0)]), make_edge(1, [(0, 99), (1, 99)]))
        )
        w = build_weight_matrix(layout, DetectionParams(t_abs=1.0, t_frac=None, epsilon=0.0))
        assert not w.weights.any()
        assert not w.bundled_flag.any()

    def test_epsilon_one_weights_all_pairs(self):
        rng = np.random.default_rng(1)
        layout = random_layout(rng, m=6)
        w = build_weight_matrix(layout, DetectionParams(epsilon=1.0))
        off = ~np.eye(6, dtype=bool)
        assert (w.weights[off] == 1.0).all()
        assert (np.diag(w.weights) == 0.0).all()

    def test_matrix_invariants(self):
        rng = np.random.default_rng(2)
        layout = random_layout(rng, m=12)
        eps = 0.001
        w = build_weight_matrix(layout, DetectionParams(epsilon=eps))
        off = ~np.eye(12, dtype=bool)
        assert set(np.unique(w.weights[off])) <= {eps, 1.0}
        assert ((w.weights == 1.0) == w.bundled_flag).all()
        assert not np.diag(w.bundled_flag).any()

    def test_fixture_flags_match_brute_force(self, ordered_fixture):
        w = build_weight_matrix(ordered_fixture.layout, DetectionParams())
        flags = oracle_flags(ordered_fixture.layout, ordered_fixture.t, 0.4)
        assert (w.bundled_flag == flags).all()

    def test_index_equals_brute_force_path(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            layout = random_layout(rng, m=int(rng.integers(2, 20)))
            params = DetectionParams(t_frac=rng.uniform(0.01, 0.2))
            a = build_weight_matrix(layout, params)
            b = oracle_flags(layout, params.resolve_t(layout), params.k_min)
            assert (a.bundled_flag == b).all()

    def test_monotone_in_t(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            layout = random_layout(rng, m=10)
            t = rng.uniform(2.0, 10.0)
            small = build_weight_matrix(layout, DetectionParams(t_abs=t, t_frac=None))
            big = build_weight_matrix(layout, DetectionParams(t_abs=2 * t, t_frac=None))
            assert (big.bundled_flag | ~small.bundled_flag).all()

    def test_antimonotone_in_k_min(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            layout = random_layout(rng, m=10)
            loose = build_weight_matrix(layout, DetectionParams(k_min=0.2))
            strict = build_weight_matrix(layout, DetectionParams(k_min=0.8))
            assert (loose.bundled_flag | ~strict.bundled_flag).all()

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        layout = random_layout(rng, m=15)
        params = DetectionParams(t_abs=4.0, t_frac=None)
        before = build_weight_matrix(layout, params)
        moved = rigid_transform(layout, angle=0.7, dx=13.0, dy=-42.0)
        after = build_weight_matrix(moved, params)
        assert (before.bundled_flag == after.bundled_flag).all()

    def test_self_similarity(self):
        e = make_edge(0, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
        twin = make_edge(1, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
        assert detect_pair(e, twin, t=0.1, k_ij=5)

    def test_dump_sorted(self):
        rng = np.random.default_rng(10)
        layout = random_layout(rng, m=12)
        w = build_weight_matrix(layout, DetectionParams(t_frac=0.2))
        pairs = [(p["i"], p["j"]) for p in dump_bundled_pairs(w)]
        assert pairs == sorted(pairs)
        assert len(pairs) == w.bundled_pair_count


class TestDetectionParams:
    def test_both_thresholds_rejected(self):
        with pytest.raises(ParameterError):
            DetectionParams(t_abs=1.0, t_frac=0.03)

    def test_neither_threshold_rejected(self):
        with pytest.raises(ParameterError):
            DetectionParams(t_abs=None, t_frac=None)

    def test_epsilon_range(self):
        with pytest.raises(ParameterError):
            DetectionParams(epsilon=2.0)

    def test_k_min_range(self):
        with pytest.raises(ParameterError):
            DetectionParams(k_min=0.0)

    def test_zero_extent_needs_absolute_t(self):
        e = EdgeCurve(id=0, v1=Point2(1, 1), v2=Point2(1, 1), controls=(Point2(1, 1),))
        layout = GraphLayout(edges=(e,))
        with pytest.raises(ParameterError, match="absolute"):
            DetectionParams().resolve_t(layout)


def layout_from_points(controls):
    return GraphLayout(
        edges=tuple(make_edge(i, pts) for i, pts in enumerate(controls))
    )


@st.composite
def lattice_layouts(draw):
    """Controls on an integer lattice (exact arithmetic) with negative
    coordinates, coincident points, single-control edges, points exactly
    t apart and on cell boundaries, and t up to well past the extent."""
    unit = draw(st.sampled_from([0.25, 1.0, 8.0]))
    coord = st.integers(-6, 6).map(lambda v: v * unit)
    controls = draw(
        st.lists(st.lists(st.tuples(coord, coord), min_size=1, max_size=8), min_size=1, max_size=7)
    )
    t = unit * draw(st.integers(1, 30))
    k_min = draw(st.floats(0.05, 1.0))
    return layout_from_points(controls), t, k_min


@st.composite
def wide_layouts(draw):
    """t = 1e-9 on a layout about 1e6 wide: controls sit in clusters a
    few t across around three far-apart centres (exact offsets)."""
    centre = st.sampled_from([-5e5, 3e5, 5e5])
    offset = st.integers(-40, 40).map(lambda v: v * 2.0**-34)
    point = st.tuples(centre, offset, centre, offset).map(lambda c: (c[0] + c[1], c[2] + c[3]))
    controls = draw(
        st.lists(st.lists(point, min_size=1, max_size=6), min_size=1, max_size=6)
    )
    return layout_from_points(controls), 1e-9, draw(st.floats(0.05, 1.0))


def check_against_oracle(layout, t, k_min):
    w = build_weight_matrix(layout, DetectionParams(t_abs=t, t_frac=None, k_min=k_min))
    assert (w.bundled_flag == oracle_flags(layout, t, k_min)).all()
    for (i, j), run in zip(zip(*np.nonzero(w.bundled_flag)), w.runs):
        ei, ej = layout.edges[i], layout.edges[j]
        k_ij = required_run_length(ei.n_controls, ej.n_controls, k_min)
        assert tuple(run) == oracle_first_run(ei, ej, t, k_ij)


class TestDetectionProperties:
    @settings(max_examples=150, deadline=None)
    @given(lattice_layouts())
    def test_lattice_layouts_match_oracle(self, case):
        check_against_oracle(*case)

    @settings(max_examples=50, deadline=None)
    @given(wide_layouts())
    def test_tiny_t_on_wide_layout_matches_oracle(self, case):
        check_against_oracle(*case)

    def test_rounding_at_cell_edge_matches_oracle(self):
        # x - origin = 1 - 2**-53 and 2.0 are cells 0 and 2 for a cell of
        # exactly t = 1, yet the rounded distance passes the exact test.
        layout = layout_from_points([[(0.0, 5.0)], [(1 - 2.0**-53, 0.0)], [(2.0, 0.0)]])
        check_against_oracle(layout, 1.0, 1.0)
        w = build_weight_matrix(layout, DetectionParams(t_abs=1.0, t_frac=None))
        assert w.bundled_flag[1, 2] and w.bundled_flag[2, 1]

    @settings(max_examples=50, deadline=None)
    @given(lattice_layouts(), st.randoms(use_true_random=False))
    def test_permuting_edge_ids_permutes_flags_and_runs(self, case, rnd):
        layout, t, k_min = case
        perm = list(range(layout.m))
        rnd.shuffle(perm)
        permuted = GraphLayout(
            edges=tuple(
                EdgeCurve(id=k, v1=e.v1, v2=e.v2, controls=e.controls)
                for k, e in enumerate(layout.edges[p] for p in perm)
            )
        )
        params = DetectionParams(t_abs=t, t_frac=None, k_min=k_min)
        a = build_weight_matrix(layout, params)
        b = build_weight_matrix(permuted, params)
        perm = np.array(perm)
        assert (b.bundled_flag == a.bundled_flag[np.ix_(perm, perm)]).all()
        runs_a = {pair: tuple(r) for pair, r in zip(zip(*np.nonzero(a.bundled_flag)), a.runs)}
        for (i, j), r in zip(zip(*np.nonzero(b.bundled_flag)), b.runs):
            assert tuple(r) == runs_a[(perm[i], perm[j])]

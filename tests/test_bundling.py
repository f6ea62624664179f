import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_flags,
    dense_weights,
    edges_of,
    make_layout,
    oracle_detect,
    oracle_first_run,
    oracle_flags,
    random_layout,
    rigid_transform,
    runs_by_pair,
)

from peacock.bundling import (
    DetectionParams,
    ParameterError,
    _detect,
    build_weight_matrix,
    dump_bundled_pairs,
    near_pairs,
    required_run_length,
)
from peacock.fixtures import make_ordered_bundles


def layout_from_points(controls):
    """Edges through the given control points, with their first and last
    control as endpoints."""
    return make_layout((pts[0], pts[-1], pts) for pts in controls)


def detect_flags(layout, t, k_min):
    """Detection flags of every ordered pair."""
    pairs, _ = _detect(layout.points, layout.offsets, t, k_min)
    flags = np.zeros((layout.m, layout.m), dtype=bool)
    flags.flat[pairs] = True
    return flags


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
        layout = layout_from_points([[(0, 0), (1, 0), (2, 0), (3, 0)]] * 2)
        assert detect_flags(layout, t=0.5, k_min=1.0)[0, 1]  # a run of 4

    def test_all_far(self):
        layout = layout_from_points([[(0, 0), (1, 0)], [(0, 100), (1, 100)]])
        assert not detect_flags(layout, t=1.0, k_min=0.5).any()  # a run of 1

    def test_too_few_controls_is_false(self):
        layout = layout_from_points([[(0, 0), (1, 0)]] * 2)
        assert not detect_flags(layout, t=1.0, k_min=1.5).any()  # a run of 3 of 2

    def test_three_edge_configuration(self):
        # Edge 2 runs along y=0; edge 1 travels beside it at y=0.5 except
        # for a stray first control; edge 3 crosses edge 2 near x=6,
        # touching edge 1 nowhere and edge 2 over a run.
        controls = [
            [(-2, 3), (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5)],
            [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)],
            [(6, 1.6), (6, 0.8), (6, 0.0), (6, -0.8)],
        ]
        # k_min = 0.4 asks for a run of 2 of every pair: floor(0.4 * 5) = floor(0.4 * 7) = 2.
        t, k_min, k = 1.0, 0.4, 2
        expected = np.array([[False, True, False], [True, False, True], [False, True, False]])
        assert (detect_flags(layout_from_points(controls), t, k_min) == expected).all()
        for i, ci in enumerate(controls):
            for j, cj in enumerate(controls):
                if i != j:
                    assert oracle_detect(ci, cj, t, k) == expected[i, j]

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            layout = random_layout(rng, m=2, max_controls=8, span=10.0)
            (_, _, c1), (_, _, c2) = edges_of(layout)
            t = rng.uniform(0.5, 5.0)
            k = int(rng.integers(1, 5))
            flags = detect_flags(layout, t, (k + 0.5) / max(len(c1), len(c2)))  # a run of k
            assert flags[0, 1] == oracle_detect(c1, c2, t, k)
            assert flags[1, 0] == oracle_detect(c2, c1, t, k)


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
        layout = layout_from_points([[(0, 0), (1, 0)], [(0, 99), (1, 99)]])
        w = build_weight_matrix(layout, DetectionParams(t_abs=1.0, t_frac=None, epsilon=0.0))
        assert not dense_weights(w).any()
        assert not dense_flags(w).any()

    def test_epsilon_one_weights_all_pairs(self):
        rng = np.random.default_rng(1)
        layout = random_layout(rng, m=6)
        w = build_weight_matrix(layout, DetectionParams(epsilon=1.0))
        off = ~np.eye(6, dtype=bool)
        assert (dense_weights(w)[off] == 1.0).all()
        assert (np.diag(dense_weights(w)) == 0.0).all()

    def test_matrix_invariants(self):
        rng = np.random.default_rng(2)
        layout = random_layout(rng, m=12)
        eps = 0.001
        w = build_weight_matrix(layout, DetectionParams(epsilon=eps))
        off = ~np.eye(12, dtype=bool)
        assert set(np.unique(dense_weights(w)[off])) <= {eps, 1.0}
        assert ((dense_weights(w) == 1.0) == dense_flags(w)).all()
        assert not np.diag(dense_flags(w)).any()

    def test_holds_pairs_not_matrices(self):
        layout = make_ordered_bundles(64, 25, reverse_last=True, seed=0).layout
        build_weight_matrix(layout, DetectionParams())  # leaves out first-call allocations
        tracemalloc.start()
        try:
            w = build_weight_matrix(layout, DetectionParams())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert w.bundled_pair_count > 0
        assert held <= 32 * w.bundled_pair_count

    def test_fixture_flags_match_brute_force(self, ordered_fixture):
        w = build_weight_matrix(ordered_fixture.layout, DetectionParams())
        flags = oracle_flags(ordered_fixture.layout, ordered_fixture.t, 0.4)
        assert (dense_flags(w) == flags).all()

    def test_index_equals_brute_force_path(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            layout = random_layout(rng, m=int(rng.integers(2, 20)))
            params = DetectionParams(t_frac=rng.uniform(0.01, 0.2))
            a = build_weight_matrix(layout, params)
            b = oracle_flags(layout, params.resolve_t(layout), params.k_min)
            assert (dense_flags(a) == b).all()

    def test_monotone_in_t(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            layout = random_layout(rng, m=10)
            t = rng.uniform(2.0, 10.0)
            small = build_weight_matrix(layout, DetectionParams(t_abs=t, t_frac=None))
            big = build_weight_matrix(layout, DetectionParams(t_abs=2 * t, t_frac=None))
            assert (dense_flags(big) | ~dense_flags(small)).all()

    def test_antimonotone_in_k_min(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            layout = random_layout(rng, m=10)
            loose = build_weight_matrix(layout, DetectionParams(k_min=0.2))
            strict = build_weight_matrix(layout, DetectionParams(k_min=0.8))
            assert (dense_flags(loose) | ~dense_flags(strict)).all()

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        layout = random_layout(rng, m=15)
        params = DetectionParams(t_abs=4.0, t_frac=None)
        before = build_weight_matrix(layout, params)
        moved = rigid_transform(layout, angle=0.7, dx=13.0, dy=-42.0)
        after = build_weight_matrix(moved, params)
        assert (dense_flags(before) == dense_flags(after)).all()

    def test_self_similarity(self):
        layout = layout_from_points([[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]] * 2)
        assert detect_flags(layout, t=0.1, k_min=1.0).all(where=~np.eye(2, dtype=bool))

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
        layout = layout_from_points([[(1, 1)]])
        with pytest.raises(ParameterError, match="absolute"):
            DetectionParams().resolve_t(layout)


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
    assert (dense_flags(w) == oracle_flags(layout, t, k_min)).all()
    controls = [c for _, _, c in edges_of(layout)]
    for (i, j), run in runs_by_pair(w).items():
        k_ij = required_run_length(len(controls[i]), len(controls[j]), k_min)
        assert run == oracle_first_run(controls[i], controls[j], t, k_ij)


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
        assert dense_flags(w)[1, 2] and dense_flags(w)[2, 1]

    @settings(max_examples=50, deadline=None)
    @given(lattice_layouts(), st.randoms(use_true_random=False))
    def test_permuting_edge_ids_permutes_flags_and_runs(self, case, rnd):
        layout, t, k_min = case
        perm = list(range(layout.m))
        rnd.shuffle(perm)
        edges = edges_of(layout)
        permuted = make_layout(edges[p] for p in perm)
        params = DetectionParams(t_abs=t, t_frac=None, k_min=k_min)
        a = build_weight_matrix(layout, params)
        b = build_weight_matrix(permuted, params)
        perm = np.array(perm)
        assert (dense_flags(b) == dense_flags(a)[np.ix_(perm, perm)]).all()
        runs_a = runs_by_pair(a)
        for (i, j), r in runs_by_pair(b).items():
            assert r == runs_a[(perm[i], perm[j])]

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    edges_of,
    make_layout,
    oracle_gradient,
    oracle_normalize_colors,
    oracle_prepare,
    oracle_projection_init,
    oracle_stress,
    random_layout,
)

import peacock.coloring
from peacock.bundling import BundleWeightMatrix, DetectionParams, build_weight_matrix
from peacock.coloring import (
    ColorEmbedding,
    ColorTable,
    OptimizationError,
    OptimizerConfig,
    colors_to_display,
    initial_embedding,
    normalize_colors,
    optimize,
    smacof_step,
    stress,
)
from peacock.dissimilarity import DissimilarityMatrix, build_dissimilarity_matrix, distances
from peacock.fixtures import make_crossing_bundles, make_ordered_bundles
from peacock.pipeline import run_peacock


def weight_matrix(flags, epsilon=0.0):
    flags = np.asarray(flags, dtype=bool)
    m = flags.shape[0]
    weights = np.where(flags, 1.0, epsilon)
    np.fill_diagonal(weights, 0.0)
    np.fill_diagonal(flags, False)
    runs = np.zeros((int(flags.sum()), 2), dtype=np.int64)
    return BundleWeightMatrix(m=m, weights=weights, bundled_flag=flags, runs=runs)


def random_instance(rng, m, q, epsilon=0.1):
    flags = rng.random((m, m)) < 0.3
    np.fill_diagonal(flags, False)
    pts = rng.uniform(0, 10, size=(m, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    w = weight_matrix(flags, epsilon)
    dm = DissimilarityMatrix(m=m, d=d)
    y = ColorEmbedding(m=m, q=q, y=rng.standard_normal((m, q)))
    return y, w, dm


def two_point_instance(y_vals=(0.0, 1.0), d12=2.0):
    w = weight_matrix(np.array([[False, True], [True, False]]))
    d = DissimilarityMatrix(m=2, d=np.array([[0.0, d12], [d12, 0.0]]))
    y = ColorEmbedding(m=2, q=1, y=np.array([[y_vals[0]], [y_vals[1]]]))
    return y, w, d


class TestStress:
    def test_matched_distances_zero(self):
        y, w, d = two_point_instance(y_vals=(0.0, 2.0))
        assert stress(y, w, d) == 0.0

    def test_two_point_value(self):
        y, w, d = two_point_instance()
        # both ordered pairs contribute (2-1)^2
        assert stress(y, w, d) == pytest.approx(2.0)

    def test_matches_naive_loop(self, ordered_fixture):
        from peacock.bundling import DetectionParams, build_weight_matrix
        from peacock.dissimilarity import build_dissimilarity_matrix

        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        rng = np.random.default_rng(0)
        y = ColorEmbedding(m=layout.m, q=2, y=rng.standard_normal((layout.m, 2)))
        want = oracle_stress(y.y, w.weights, d.d)
        assert stress(y, w, d) == pytest.approx(want, rel=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        y, w, d = random_instance(rng, m=8, q=3)
        shifted = ColorEmbedding(m=8, q=3, y=y.y + np.array([5.0, -2.0, 0.5]))
        assert stress(shifted, w, d) == pytest.approx(stress(y, w, d), rel=1e-12)

    def test_epsilon_zero_masks_unbundled_terms(self):
        rng = np.random.default_rng(12)
        y, w, d = random_instance(rng, m=10, q=2, epsilon=0.0)
        masked = w.weights * np.asarray(w.bundled_flag, dtype=float)
        assert stress(y, w, d) == pytest.approx(
            oracle_stress(y.y, masked, d.d), rel=1e-10
        )

    def test_dimension_mismatch(self):
        y, w, d = two_point_instance()
        bad = DissimilarityMatrix(m=3, d=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            stress(y, w, bad)


class TestSmacofStep:
    def test_stationary_point_unchanged(self):
        y, w, d = two_point_instance(y_vals=(0.0, 2.0))
        y2 = smacof_step(y, w, d)
        assert stress(y2, w, d) == pytest.approx(0.0, abs=1e-20)
        assert abs(y2.y[0, 0] - y2.y[1, 0]) == pytest.approx(2.0)

    def test_two_point_closed_form(self):
        # Guttman transform for two points lands on the target distance.
        y, w, d = two_point_instance()
        y2 = smacof_step(y, w, d)
        assert abs(y2.y[0, 0] - y2.y[1, 0]) == pytest.approx(2.0, abs=1e-12)
        assert stress(y2, w, d) == pytest.approx(0.0, abs=1e-18)

    def test_descent_over_100_steps(self):
        rng = np.random.default_rng(21)
        y, w, d = random_instance(rng, m=12, q=2)
        s = stress(y, w, d)
        for _ in range(100):
            y = smacof_step(y, w, d)
            s_next = stress(y, w, d)
            assert s_next <= s * (1 + 1e-12)
            s = s_next

    def test_all_zero_weights_rejected(self):
        w = weight_matrix(np.zeros((3, 3), dtype=bool), epsilon=0.0)
        d = DissimilarityMatrix(m=3, d=np.ones((3, 3)) - np.eye(3))
        y = ColorEmbedding(m=3, q=1, y=np.zeros((3, 1)))
        with pytest.raises(OptimizationError):
            smacof_step(y, w, d)


def guttman_with(prepare, y, w, d):
    w_sym, v_plus = prepare(w)
    return peacock.coloring._guttman_update(y.y, distances(y.y, y.y), w_sym, v_plus, d.d)


def assert_matches_pinv(y, w, d):
    want = guttman_with(oracle_prepare, y, w, d)
    got = guttman_with(peacock.coloring._prepare, y, w, d)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestPrepare:
    """The exact inverse of V + P against the SVD pseudo-inverse of V."""

    def test_random_instance(self):
        for seed in range(20):
            y, w, d = random_instance(np.random.default_rng(seed), m=12, q=2, epsilon=0.1)
            assert_matches_pinv(y, w, d)

    def test_random_instance_several_components(self):
        n_components = []
        for seed in range(40):
            y, w, d = random_instance(np.random.default_rng(seed), m=6, q=2, epsilon=0.0)
            if not w.bundled_flag.any():
                continue
            assert_matches_pinv(y, w, d)
            adj = (w.weights + w.weights.T) > 0
            n_components.append(len(set(peacock.coloring._components(adj))))
        assert max(n_components) > 2

    def test_edges_without_partners(self):
        layout = random_layout(np.random.default_rng(5), m=30, max_controls=6)
        w = build_weight_matrix(layout, DetectionParams(t_abs=4.0, t_frac=None, epsilon=0.0))
        alone = ~(w.bundled_flag | w.bundled_flag.T).any(axis=1)
        assert 0 < alone.sum() < layout.m
        y = initial_embedding(layout.m, OptimizerConfig(q=3), layout)
        assert_matches_pinv(y, w, build_dissimilarity_matrix(layout))


def permuted(layout, perm):
    """The layout whose edge i is edge perm[i] of `layout`."""
    edges = edges_of(layout)
    return make_layout((edges[p] for p in perm), nodes=layout.nodes)


class TestInitialEmbedding:
    @pytest.mark.parametrize("q", [1, 3])
    def test_untied_layout_is_plain_projection(self, q):
        # Sized like the ordered benchmark layouts; the nearest init rows are
        # 1.8e-6 apart there, so no row counts as tied.
        layout = make_ordered_bundles(80, 25, reverse_last=True, seed=3).layout
        y = initial_embedding(layout.m, OptimizerConfig(q=q), layout)
        assert np.array_equal(y.y, oracle_projection_init(layout, q))

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_every_tie_broken(self, q):
        # Each spoke's middle edge has its midpoint at the origin; in x, all
        # of spoke 0 sits at 0 and spokes 1 and 2 mirror each other.
        layout = make_crossing_bundles(3, 5, seed=1).layout
        plain = oracle_projection_init(layout, q)
        y = initial_embedding(layout.m, OptimizerConfig(q=q), layout).y
        gap = np.abs(y[:, None] - y[None]).max(axis=2) + np.eye(layout.m)
        assert gap.min() >= 0.5 * peacock.coloring._TIE_STEP
        plain_gap = np.abs(plain[:, None] - plain[None]).max(axis=2) + np.eye(layout.m)
        tied = (plain_gap < 1e-9).any(axis=1)
        assert tied.sum() == (15 if q == 1 else 3)
        assert np.array_equal(y[~tied], plain[~tied])
        assert np.abs(y - plain).max() < 1e-5

    @pytest.mark.parametrize("bundles, edges, q", [(3, 5, 1), (3, 5, 3), (6, 10, 1)])
    def test_permuting_edge_ids_permutes_init_and_colors(self, bundles, edges, q):
        layout = make_crossing_bundles(bundles, edges, seed=1).layout
        cfg = OptimizerConfig(q=q)
        perm = np.random.default_rng(2).permutation(layout.m)
        moved = permuted(layout, perm)
        y = initial_embedding(layout.m, cfg, layout).y
        assert np.allclose(initial_embedding(layout.m, cfg, moved).y, y[perm], rtol=0, atol=1e-12)
        table, _ = run_peacock(layout, DetectionParams(), cfg)
        moved_table, _ = run_peacock(moved, DetectionParams(), cfg)
        assert np.allclose(moved_table.col, table.col[perm], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("fixture", [
        make_ordered_bundles(6, 6, reverse_last=True, seed=0),
        make_crossing_bundles(3, 5, seed=1),
    ], ids=["criterion-6", "crossing"])
    def test_colors_match_pinv_oracle(self, fixture):
        layout = fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        res = optimize(w, d, OptimizerConfig(), layout)
        with mock.patch.object(peacock.coloring, "_prepare", oracle_prepare):
            want = optimize(w, d, OptimizerConfig(), layout)
        assert res.n_iters == want.n_iters
        got_col = normalize_colors(res.embedding, w).col
        want_col = normalize_colors(want.embedding, w).col
        assert np.abs(got_col - want_col).max() <= 1e-9


class TestOptimize:
    def test_equilateral_triangle(self):
        flags = ~np.eye(3, dtype=bool)
        w = weight_matrix(flags)
        side = 3.0
        d = DissimilarityMatrix(m=3, d=side * (1 - np.eye(3)))
        cfg = OptimizerConfig(q=2, seed=1, init="seeded-random", rel_tol=1e-12)
        res = optimize(w, d, cfg)
        y = res.embedding.y
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(y[i] - y[j]) == pytest.approx(side, abs=1e-6)

    def test_all_zero_weights_error(self):
        w = weight_matrix(np.zeros((2, 2), dtype=bool), epsilon=0.0)
        d = DissimilarityMatrix(m=2, d=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(OptimizationError):
            optimize(w, d, OptimizerConfig(init="seeded-random"))

    def test_deterministic(self, ordered_fixture):
        from peacock.bundling import DetectionParams, build_weight_matrix
        from peacock.dissimilarity import build_dissimilarity_matrix

        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=2, seed=3)
        a = optimize(w, d, cfg, layout)
        b = optimize(w, d, cfg, layout)
        assert (a.embedding.y == b.embedding.y).all()
        assert a.stress == b.stress and a.n_iters == b.n_iters

    def test_stop_reason_tolerance(self):
        # The two-point instance of acceptance criterion 5.
        w = weight_matrix(np.array([[False, True], [True, False]]))
        d = DissimilarityMatrix(m=2, d=np.array([[0.0, 2.0], [2.0, 0.0]]))
        res = optimize(w, d, OptimizerConfig(q=1, max_iters=50, seed=7, init="seeded-random"))
        assert res.stop_reason == "tolerance"
        assert res.converged

    def test_stop_reason_max_iters(self, ordered_fixture):
        from peacock.bundling import DetectionParams, build_weight_matrix
        from peacock.dissimilarity import build_dissimilarity_matrix

        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        res = optimize(w, d, OptimizerConfig(q=1, max_iters=1), layout)
        assert res.n_iters == 1
        assert res.stop_reason == "max_iters"
        assert not res.converged

    def test_stop_reason_stress_increase(self, monkeypatch):
        # Guttman updates never raise stress, so stand in a step that does.
        import peacock.coloring

        monkeypatch.setattr(peacock.coloring, "_guttman_update", lambda y, *_: 3.0 * y)
        w = weight_matrix(np.array([[False, True], [True, False]]))
        d = DissimilarityMatrix(m=2, d=np.array([[0.0, 2.0], [2.0, 0.0]]))
        res = optimize(w, d, OptimizerConfig(q=1, max_iters=50, seed=7, init="seeded-random"))
        assert res.stop_reason == "stress_increase"
        assert not res.converged

    @pytest.mark.parametrize("max_iters, rel_tol", [(8, 1e-15), (500, 1e-2)])
    def test_equals_repeated_smacof_steps(self, max_iters, rel_tol):
        # Each iterate's stress and next update share one distance matrix;
        # both must still belong to the current iterate.
        rng = np.random.default_rng(31)
        _, w, d = random_instance(rng, m=15, q=3, epsilon=0.05)
        cfg = OptimizerConfig(q=3, max_iters=max_iters, rel_tol=rel_tol, seed=4,
                              init="seeded-random")
        res = optimize(w, d, cfg)
        assert res.stop_reason == ("max_iters" if max_iters == 8 else "tolerance")
        y = initial_embedding(15, cfg)
        for _ in range(res.n_iters):
            y = smacof_step(y, w, d)
        assert np.array_equal(res.embedding.y, y.y)
        assert res.stress == stress(res.embedding, w, d)

    def test_endpoint_projection_needs_layout(self):
        w = weight_matrix(~np.eye(2, dtype=bool))
        d = DissimilarityMatrix(m=2, d=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(OptimizationError, match="layout"):
            optimize(w, d, OptimizerConfig())

    def test_fixture_monotone_colors(self, ordered_fixture):
        from peacock.bundling import DetectionParams, build_weight_matrix
        from peacock.dissimilarity import build_dissimilarity_matrix

        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        res = optimize(w, d, OptimizerConfig(q=1), layout)
        for ids in ordered_fixture.bundles:
            vals = res.embedding.y[ids, 0]
            diffs = np.diff(vals)
            assert (diffs > 0).all() or (diffs < 0).all()


class TestNormalizeColors:
    def test_midpoint_maps_to_half(self):
        flags = np.array(
            [
                [False, True, True],
                [True, False, True],
                [True, True, False],
            ]
        )
        w = weight_matrix(flags)
        y = ColorEmbedding(m=3, q=1, y=np.array([[0.2], [0.6], [1.0]]))
        table = normalize_colors(y, w)
        assert table.col[1, 0] == pytest.approx(0.5)
        assert table.col[0, 0] == 0.0
        assert table.col[2, 0] == 1.0

    def test_lonely_edge_uses_global_range(self):
        flags = np.zeros((3, 3), dtype=bool)
        flags[0, 1] = flags[1, 0] = True
        w = weight_matrix(flags, epsilon=0.5)
        y = ColorEmbedding(m=3, q=1, y=np.array([[0.0], [4.0], [1.0]]))
        table = normalize_colors(y, w)
        # edge 2 has no bundle partners: global min-max over (0, 4, 1)
        assert table.col[2, 0] == pytest.approx(0.25)

    def test_degenerate_dimension_maps_to_half(self):
        flags = np.array([[False, True], [True, False]])
        w = weight_matrix(flags)
        y = ColorEmbedding(m=2, q=2, y=np.array([[1.0, 3.0], [1.0, 5.0]]))
        table = normalize_colors(y, w)
        assert (table.col[:, 0] == 0.5).all()
        assert table.col[0, 1] == 0.0 and table.col[1, 1] == 1.0

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(17)
        m = 12
        flags = rng.random((m, m)) < 0.4
        np.fill_diagonal(flags, False)
        w = weight_matrix(flags, epsilon=0.01)
        y = ColorEmbedding(m=m, q=2, y=rng.standard_normal((m, 2)))
        table = normalize_colors(y, w)
        assert (table.col >= 0).all() and (table.col <= 1).all()

    def test_cliques_span_full_range(self):
        # Mutually bundled groups share one neighborhood, so their final
        # colors reach both ends of the range in every dimension.
        rng = np.random.default_rng(18)
        m = 12
        flags = np.zeros((m, m), dtype=bool)
        cliques = [list(range(0, 4)), list(range(4, 8)), list(range(8, 12))]
        for ids in cliques:
            for i in ids:
                for j in ids:
                    flags[i, j] = i != j
        w = weight_matrix(flags, epsilon=0.001)
        y = ColorEmbedding(m=m, q=2, y=rng.standard_normal((m, 2)))
        table = normalize_colors(y, w)
        for ids in cliques:
            for dim in range(2):
                assert table.col[ids, dim].min() == pytest.approx(0.0)
                assert table.col[ids, dim].max() == pytest.approx(1.0)


@st.composite
def embeddings_with_flags(draw):
    """Small embeddings with repeated values (zero spans) and random flags."""
    m = draw(st.integers(1, 9))
    q = draw(st.integers(1, 3))
    values = st.sampled_from([-2.0, -0.5, 0.0, 0.1, 0.3, 1.0, 7.5])
    y = draw(arrays(float, (m, q), elements=values | st.floats(-1e3, 1e3)))
    flags = draw(arrays(bool, (m, m)))
    return y, flags


class TestNormalizeColorsOracle:
    @settings(max_examples=200, deadline=None)
    @given(embeddings_with_flags())
    def test_equals_loop_oracle(self, case):
        y, flags = case
        np.fill_diagonal(flags, False)
        m, q = y.shape
        table = normalize_colors(ColorEmbedding(m=m, q=q, y=y), weight_matrix(flags, 0.1))
        assert np.array_equal(table.col, oracle_normalize_colors(y, flags))


class TestColorsToDisplay:
    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.integers(1, 20),
                  elements=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    def test_q1_equals_loop_oracle(self, values):
        table = ColorTable(m=len(values), q=1, col=values[:, None].copy())
        want = oracle_gradient(values, np.array([[0, 0, 1], [1, 0, 0], [1, 1, 0]], float))
        assert np.array_equal(colors_to_display(table), want)

    def test_q3_identity(self):
        table = ColorTable(m=1, q=3, col=np.array([[0.1, 0.5, 0.9]]))
        assert np.allclose(colors_to_display(table), [[0.1, 0.5, 0.9]])

    def test_q1_gradient_endpoints(self):
        table = ColorTable(m=3, q=1, col=np.array([[0.0], [0.5], [1.0]]))
        rgb = colors_to_display(table)
        assert np.allclose(rgb[0], [0, 0, 1])
        assert np.allclose(rgb[1], [1, 0, 0])
        assert np.allclose(rgb[2], [1, 1, 0])

    def test_q2_channel_mapping(self):
        table = ColorTable(m=1, q=2, col=np.array([[0.3, 0.7]]))
        assert np.allclose(colors_to_display(table), [[0.3, 0.0, 0.7]])

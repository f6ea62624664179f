import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    dense_flags,
    dense_weights,
    edges_of,
    make_layout,
    oracle_gradient,
    oracle_normalize_colors,
    oracle_optimize,
    oracle_prepare,
    oracle_projection_init,
    oracle_smacof_step,
    oracle_stress,
    random_instance,
    random_layout,
    weight_matrix,
)

import peacock.coloring
from peacock.bundling import DetectionParams, build_weight_matrix
from peacock.coloring import (
    OptimizationError,
    OptimizerConfig,
    colors_to_display,
    initial_embedding,
    normalize_colors,
    optimize,
)
from peacock.dissimilarity import build_dissimilarity_matrix
from peacock.fixtures import make_crossing_bundles, make_ordered_bundles
from peacock.pipeline import run_peacock


def smacof_step(y, w, d):
    """One update of the step `optimize` iterates; never increases the stress."""
    return peacock.coloring._smacof_step(y, d, peacock.coloring._prepare(w, d))[1]


def stress(y, w, d):
    """The stress of y as the kernel `optimize` iterates computes it."""
    return peacock.coloring._smacof_step(y, d, peacock.coloring._prepare(w, d))[0]


def two_point_instance(y_vals=(0.0, 1.0), d12=2.0):
    w = weight_matrix(np.array([[False, True], [True, False]]))
    d = np.array([[0.0, d12], [d12, 0.0]])
    y = np.array([[y_vals[0]], [y_vals[1]]])
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
        y = rng.standard_normal((layout.m, 2))
        want = oracle_stress(y, dense_weights(w), d)
        assert stress(y, w, d) == pytest.approx(want, rel=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        y, w, d = random_instance(rng, m=8, q=3)
        shifted = y + np.array([5.0, -2.0, 0.5])
        assert stress(shifted, w, d) == pytest.approx(stress(y, w, d), rel=1e-12)

    def test_epsilon_zero_masks_unbundled_terms(self):
        rng = np.random.default_rng(12)
        y, w, d = random_instance(rng, m=10, q=2, epsilon=0.0)
        masked = dense_weights(w) * np.asarray(dense_flags(w), dtype=float)
        assert stress(y, w, d) == pytest.approx(
            oracle_stress(y, masked, d), rel=1e-10
        )

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_kernel_matches_oracle_relative_to_weighted_dissimilarities(self, epsilon):
        # The shared part is summed as sum d^2 - 2 sum d delta + sum delta^2,
        # so its rounding is relative to sum w d^2, not to the stress.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m, q = int(rng.integers(2, 25)), int(rng.integers(1, 4))
            y, w, d = random_instance(rng, m=m, q=q, epsilon=epsilon)
            one_way = weight_matrix(np.triu(rng.random((m, m)) < 0.3, 1), epsilon)
            everything = weight_matrix(~np.eye(m, dtype=bool), epsilon)
            for w in (w, one_way, everything):
                weights = dense_weights(w)
                if not weights.any():
                    continue
                scale = (weights * d**2).sum()
                want = oracle_stress(y, weights, d)
                assert abs(stress(y, w, d) - want) <= 1e-12 * scale

    def test_dimension_mismatch(self):
        y, w, d = two_point_instance()
        bad = np.zeros((3, 3))
        with pytest.raises(ValueError, match="mismatch"):
            optimize(w, bad, OptimizerConfig(init="seeded-random"))


class TestSmacofStep:
    def test_stationary_point_unchanged(self):
        y, w, d = two_point_instance(y_vals=(0.0, 2.0))
        y2 = smacof_step(y, w, d)
        assert stress(y2, w, d) == pytest.approx(0.0, abs=1e-20)
        assert abs(y2[0, 0] - y2[1, 0]) == pytest.approx(2.0)

    def test_two_point_closed_form(self):
        # Guttman transform for two points lands on the target distance.
        y, w, d = two_point_instance()
        y2 = smacof_step(y, w, d)
        assert abs(y2[0, 0] - y2[1, 0]) == pytest.approx(2.0, abs=1e-12)
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
        d = np.ones((3, 3)) - np.eye(3)
        y = np.zeros((3, 1))
        with pytest.raises(OptimizationError):
            smacof_step(y, w, d)


def assert_matches_pinv(y, w, d):
    want = oracle_smacof_step(y, w, d)
    got = smacof_step(y, w, d)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestPrepare:
    """The block inverses of u M I + L_R against the SVD pseudo-inverse of V."""

    def test_random_instance(self):
        for seed in range(20):
            y, w, d = random_instance(np.random.default_rng(seed), m=12, q=2, epsilon=0.1)
            assert_matches_pinv(y, w, d)

    def test_random_instance_several_components(self):
        n_components = []
        for seed in range(40):
            y, w, d = random_instance(np.random.default_rng(seed), m=6, q=2, epsilon=0.0)
            if not dense_flags(w).any():
                continue
            assert_matches_pinv(y, w, d)
            _, _, blocks = peacock.coloring._prepare(w, d)
            n_components.append(sum(len(idx) for idx, *_ in blocks))
        assert max(n_components) > 2

    def test_edges_without_partners(self):
        layout = random_layout(np.random.default_rng(5), m=30, max_controls=6)
        w = build_weight_matrix(layout, DetectionParams(t_abs=4.0, t_frac=None, epsilon=0.0))
        alone = ~(dense_flags(w) | dense_flags(w).T).any(axis=1)
        assert 0 < alone.sum() < layout.m
        y = initial_embedding(layout.m, OptimizerConfig(q=3), layout)
        assert_matches_pinv(y, w, build_dissimilarity_matrix(layout))

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_every_pair_flagged_both_ways(self, epsilon):
        # u is then the flagged weight 2, and every block is a scalar.
        y, _, d = random_instance(np.random.default_rng(6), m=12, q=2)
        w = weight_matrix(~np.eye(12, dtype=bool), epsilon)
        _, _, blocks = peacock.coloring._prepare(w, d)
        assert [idx.shape for idx, *_ in blocks] == [(12, 1)]
        assert_matches_pinv(y, w, d)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_asymmetric_flags(self, epsilon):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            y, _, d = random_instance(rng, m=10, q=3)
            # One-way flags only, then every pair flagged one way and some
            # both ways, so that u = 1 + epsilon.
            one_way = np.triu(rng.random((10, 10)) < 0.3, 1)
            assert_matches_pinv(y, weight_matrix(one_way, epsilon), d)
            tournament = np.triu(rng.random((10, 10)) < 0.5, 1)
            tournament |= np.tril(~tournament.T, -1) | (rng.random((10, 10)) < 0.2)
            w = weight_matrix(tournament, epsilon)
            off = ~np.eye(10, dtype=bool)
            assert (dense_weights(w) + dense_weights(w).T)[off].min() == 1.0 + epsilon
            assert_matches_pinv(y, w, d)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_components_equal_scipy(self, m, data):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        n_edges = data.draw(st.integers(0, 2 * m))
        a = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n_edges, max_size=n_edges)),
                     dtype=np.int64)
        b = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n_edges, max_size=n_edges)),
                     dtype=np.int64)
        label = peacock.coloring._components(m, a, b)
        graph = coo_matrix((np.ones(n_edges), (a, b)), shape=(m, m))
        _, want = connected_components(graph, directed=False)
        # Both number components in the order of their smallest vertex.
        assert np.array_equal(label, want)

    def test_oversize_component_refused_before_inverting(self, monkeypatch):
        # A chain of edges each bundled with its neighbours only is one
        # component of all M edges: its block is M x M.
        m = 20
        flags = np.zeros((m, m), dtype=bool)
        flags[np.arange(m - 1), np.arange(1, m)] = True
        w = weight_matrix(flags, 0.01)
        dense = m * m * peacock.coloring.RESIDENT_BYTES_PER_PAIR
        monkeypatch.setattr(peacock.coloring, "DENSE_BUDGET", dense + 1)
        monkeypatch.setattr(np.linalg, "inv", None)
        with pytest.raises(OptimizationError, match="20 of the 20 edges form one bundle"):
            peacock.coloring._prepare(w, np.zeros((m, m)))


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
        assert np.array_equal(y, oracle_projection_init(layout, q))

    @pytest.mark.parametrize("fixture", [
        make_ordered_bundles(6, 6, reverse_last=True, seed=0),
        make_ordered_bundles(20, 50, reverse_last=True, seed=0),
    ], ids=["criterion-6", "ordered-3d"])
    def test_q3_start_has_full_rank(self, fixture):
        # A third column linear in the first two would keep every iterate in
        # their plane; the midpoints' x + y had sigma_3 = 7e-15 here.
        layout = fixture.layout
        y = initial_embedding(layout.m, OptimizerConfig(q=3), layout)
        sigma = np.linalg.svd(y, compute_uv=False)
        assert sigma[2] >= 0.1 * sigma[0]

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_every_tie_broken(self, q):
        # Each spoke's middle edge has its midpoint at the origin; in x, all
        # of spoke 0 sits at 0 and spokes 1 and 2 mirror each other.
        layout = make_crossing_bundles(3, 5, seed=1).layout
        plain = oracle_projection_init(layout, q)
        y = initial_embedding(layout.m, OptimizerConfig(q=q), layout)
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
        y = initial_embedding(layout.m, cfg, layout)
        assert np.allclose(initial_embedding(layout.m, cfg, moved), y[perm], rtol=0, atol=1e-12)
        table = run_peacock(layout, DetectionParams(), cfg).table
        moved_table = run_peacock(moved, DetectionParams(), cfg).table
        assert np.allclose(moved_table, table[perm], rtol=0, atol=1e-9)

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
        got_col = normalize_colors(res.embedding, w)
        want_col = normalize_colors(want.embedding, w)
        assert np.abs(got_col - want_col).max() <= 1e-9


class TestOptimize:
    def test_equilateral_triangle(self):
        flags = ~np.eye(3, dtype=bool)
        w = weight_matrix(flags)
        side = 3.0
        d = side * (1 - np.eye(3))
        cfg = OptimizerConfig(q=2, seed=1, init="seeded-random", rel_tol=1e-12)
        res = optimize(w, d, cfg)
        y = res.embedding
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(y[i] - y[j]) == pytest.approx(side, abs=1e-6)

    def test_all_zero_weights_error(self):
        w = weight_matrix(np.zeros((2, 2), dtype=bool), epsilon=0.0)
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
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
        assert (a.embedding == b.embedding).all()
        assert a.stress == b.stress and a.n_iters == b.n_iters

    def test_stop_reason_tolerance(self):
        # The two-point instance of acceptance criterion 5.
        w = weight_matrix(np.array([[False, True], [True, False]]))
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
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
        step = peacock.coloring._smacof_step
        monkeypatch.setattr(peacock.coloring, "_smacof_step",
                            lambda y, *args: (step(y, *args)[0], 3.0 * y))
        w = weight_matrix(np.array([[False, True], [True, False]]))
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        res = optimize(w, d, OptimizerConfig(q=1, max_iters=50, seed=7, init="seeded-random"))
        assert res.stop_reason == "stress_increase"
        assert not res.converged

    @pytest.mark.parametrize("max_iters, rel_tol", [(8, 1e-15), (500, 1e-2)])
    def test_equals_accelerated_cycles_of_dense_steps(self, max_iters, rel_tol):
        rng = np.random.default_rng(31)
        _, w, d = random_instance(rng, m=15, q=3, epsilon=0.05)
        cfg = OptimizerConfig(q=3, max_iters=max_iters, rel_tol=rel_tol, seed=4,
                              init="seeded-random")
        res = optimize(w, d, cfg)
        y, s, n, stop_reason = oracle_optimize(initial_embedding(15, cfg), w, d,
                                               max_iters, rel_tol)
        assert stop_reason == res.stop_reason == ("max_iters" if max_iters == 8 else "tolerance")
        assert res.n_iters == n
        assert np.abs(res.embedding - y).max() <= 1e-9 * np.abs(y).max()
        assert res.stress == pytest.approx(s, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 20), q=st.integers(1, 3),
           epsilon=st.floats(0.0, 1.0), max_iters=st.integers(1, 60))
    def test_accepted_stress_never_rises(self, seed, m, q, epsilon, max_iters):
        _, w, d = random_instance(np.random.default_rng(seed), m=m, q=q, epsilon=epsilon)
        seen = []

        def recorded(*args):
            for item in iterates(*args):
                seen.append(item)
                yield item

        iterates = peacock.coloring._iterates
        steps = mock.Mock(side_effect=peacock.coloring._smacof_step)
        cfg = OptimizerConfig(q=q, max_iters=max_iters, rel_tol=1e-12, init="seeded-random",
                              seed=seed)
        with mock.patch.multiple(peacock.coloring, _iterates=recorded, _smacof_step=steps):
            try:
                res = optimize(w, d, cfg)
            except OptimizationError:  # no weights
                assume(False)
        # Rises are rounding only: the stress sum rounds relative to its
        # scale, the stress of the collapsed embedding.
        scale = (dense_weights(w) * d**2).sum()
        stresses = [s for _, s, _ in seen]
        assert all(b <= a + 1e-12 * scale for a, b in zip(stresses, stresses[1:]))
        assert [n for _, _, n in seen] == sorted({n for _, _, n in seen})
        assert steps.call_count - 1 == res.n_iters == seen[-1][2] <= max_iters
        assert res.stress == stress(res.embedding, w, d)
        want = oracle_stress(res.embedding, dense_weights(w), d)
        assert res.stress == pytest.approx(want, rel=1e-10, abs=1e-12 * scale)

    def test_global_mode_takes_a_quarter_of_plain_smacofs_transforms(self, ordered_fixture):
        # Acceptance criterion 7's instance. From the full-rank start its
        # optimum is not planar: stress 11.77 where a planar one has 2,172.
        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams(epsilon=1.0))
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=3)
        res = optimize(w, d, cfg, layout)
        assert res.stop_reason == "tolerance"
        assert res.stress <= 12
        plan = peacock.coloring._prepare(w, d)
        s, y = peacock.coloring._smacof_step(initial_embedding(layout.m, cfg, layout), d, plan)
        for plain in range(1, 4 * cfg.max_iters):
            s_next, y = peacock.coloring._smacof_step(y, d, plan)
            if (s - s_next) / s < cfg.rel_tol:
                break
            s = s_next
        else:
            pytest.fail("plain SMACOF did not reach the tolerance")
        assert res.n_iters <= plain / 4

    @pytest.mark.parametrize("epsilon", [1e-9, 1e-11])
    @pytest.mark.parametrize("q", [1, 3])
    def test_tiny_epsilon_accepted_stress_never_rises(self, epsilon, q):
        # The stress shrinks with epsilon while the bundled pairs keep their
        # weight, so a transform whose rounding grew as 1 / epsilon would
        # show here as a rise.
        layout = make_ordered_bundles(6, 3, seed=0).layout
        w = build_weight_matrix(layout, DetectionParams(epsilon=epsilon))
        d = build_dissimilarity_matrix(layout)
        y = initial_embedding(layout.m, OptimizerConfig(q=q), layout)
        steps = peacock.coloring._iterates(y, d, peacock.coloring._prepare(w, d), 300)
        stresses = [s for _, s, _ in steps]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(stresses, stresses[1:]))

    def test_allocates_about_one_matrix_beyond_inputs(self):
        # optimize holds no M x M array: the per-component blocks and the
        # row-block temporaries add a fraction of one. Dense weights, a
        # component graph, V+ or B(Y) would each add most of the bound or more.
        layout = make_ordered_bundles(64, 25, reverse_last=True, seed=0).layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=3, max_iters=3)
        optimize(w, d, cfg, layout)  # leaves out first-call allocations
        tracemalloc.start()
        try:
            optimize(w, d, cfg, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layout.m == 800
        assert peak <= 0.25 * 8 * layout.m**2

    def test_endpoint_projection_needs_layout(self):
        w = weight_matrix(~np.eye(2, dtype=bool))
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
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
            vals = res.embedding[ids, 0]
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
        y = np.array([[0.2], [0.6], [1.0]])
        table = normalize_colors(y, w)
        assert table[1, 0] == pytest.approx(0.5)
        assert table[0, 0] == 0.0
        assert table[2, 0] == 1.0

    def test_lonely_edge_uses_global_range(self):
        flags = np.zeros((3, 3), dtype=bool)
        flags[0, 1] = flags[1, 0] = True
        w = weight_matrix(flags, epsilon=0.5)
        y = np.array([[0.0], [4.0], [1.0]])
        table = normalize_colors(y, w)
        # edge 2 has no bundle partners: global min-max over (0, 4, 1)
        assert table[2, 0] == pytest.approx(0.25)

    def test_degenerate_dimension_maps_to_half(self):
        flags = np.array([[False, True], [True, False]])
        w = weight_matrix(flags)
        y = np.array([[1.0, 3.0], [1.0, 5.0]])
        table = normalize_colors(y, w)
        assert (table[:, 0] == 0.5).all()
        assert table[0, 1] == 0.0 and table[1, 1] == 1.0

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(17)
        m = 12
        flags = rng.random((m, m)) < 0.4
        np.fill_diagonal(flags, False)
        w = weight_matrix(flags, epsilon=0.01)
        y = rng.standard_normal((m, 2))
        table = normalize_colors(y, w)
        assert (table >= 0).all() and (table <= 1).all()

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
        y = rng.standard_normal((m, 2))
        table = normalize_colors(y, w)
        for ids in cliques:
            for dim in range(2):
                assert table[ids, dim].min() == pytest.approx(0.0)
                assert table[ids, dim].max() == pytest.approx(1.0)


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
        table = normalize_colors(y, weight_matrix(flags, 0.1))
        assert np.array_equal(table, oracle_normalize_colors(y, flags))


class TestColorsToDisplay:
    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.integers(1, 20),
                  elements=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)))
    def test_q1_equals_loop_oracle(self, values):
        table = values[:, None]
        want = oracle_gradient(values, np.array([[0, 0, 1], [1, 0, 0], [1, 1, 0]], float))
        assert np.array_equal(colors_to_display(table), want)

    def test_q3_identity(self):
        table = np.array([[0.1, 0.5, 0.9]])
        assert np.allclose(colors_to_display(table), [[0.1, 0.5, 0.9]])

    def test_q1_gradient_endpoints(self):
        table = np.array([[0.0], [0.5], [1.0]])
        rgb = colors_to_display(table)
        assert np.allclose(rgb[0], [0, 0, 1])
        assert np.allclose(rgb[1], [1, 0, 0])
        assert np.allclose(rgb[2], [1, 1, 0])

    def test_q2_channel_mapping(self):
        table = np.array([[0.3, 0.7]])
        assert np.allclose(colors_to_display(table), [[0.3, 0.0, 0.7]])

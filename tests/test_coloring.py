import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    dense_flags,
    dense_weights,
    detect_flags,
    edges_of,
    gaussian_start,
    make_layout,
    oracle_dissimilarity,
    oracle_gradient,
    oracle_normalize_colors,
    oracle_optimize,
    oracle_prepare,
    oracle_projection_init,
    oracle_smacof_step,
    oracle_stress,
    pack,
    random_instance,
    random_layout,
    unpack,
    weight_matrix,
)

import peacock.bundling
import peacock.coloring
from peacock.bundling import DetectionParams, build_weight_matrix
from peacock.coloring import (
    OptimizerConfig,
    colors_to_display,
    initial_embedding,
    normalize_colors,
    optimize,
)
from peacock.dissimilarity import build_dissimilarity_matrix, distances, upper_row_blocks
from peacock.fixtures import make_crossing_bundles, make_ordered_bundles
from peacock.pipeline import run_peacock


def smacof_step(y, w, d, epsilon):
    """One update of the step `optimize` iterates, from the (M, M)
    dissimilarities d; never increases the stress."""
    d = pack(d)
    return peacock.coloring._smacof_step(y, d, peacock.coloring._prepare(w, d, epsilon))[1]


def stress(y, w, d, epsilon):
    """The stress of y as the kernel `optimize` iterates computes it, from
    the (M, M) dissimilarities d."""
    d = pack(d)
    return peacock.coloring._smacof_step(y, d, peacock.coloring._prepare(w, d, epsilon))[0]


def two_point_instance(y_vals=(0.0, 1.0), d12=2.0):
    w = weight_matrix(np.array([[False, True], [True, False]]))
    d = np.array([[0.0, d12], [d12, 0.0]])
    y = np.array([[y_vals[0]], [y_vals[1]]])
    return y, w, d


class TestStress:
    def test_matched_distances_zero(self):
        y, w, d = two_point_instance(y_vals=(0.0, 2.0))
        assert stress(y, w, d, 0.0) == 0.0

    def test_two_point_value(self):
        y, w, d = two_point_instance()
        # both ordered pairs contribute (2-1)^2
        assert stress(y, w, d, 0.0) == pytest.approx(2.0)

    def test_matches_naive_loop(self, ordered_fixture):
        from peacock.bundling import DetectionParams, build_weight_matrix
        from peacock.dissimilarity import build_dissimilarity_matrix

        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = unpack(build_dissimilarity_matrix(layout), layout.m)
        rng = np.random.default_rng(0)
        y = rng.standard_normal((layout.m, 2))
        want = oracle_stress(y, dense_weights(w, 0.001), d)
        assert stress(y, w, d, 0.001) == pytest.approx(want, rel=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        y, w, d = random_instance(rng, m=8, q=3)
        shifted = y + np.array([5.0, -2.0, 0.5])
        assert stress(shifted, w, d, 0.1) == pytest.approx(stress(y, w, d, 0.1), rel=1e-12)

    def test_epsilon_zero_masks_unbundled_terms(self):
        rng = np.random.default_rng(12)
        y, w, d = random_instance(rng, m=10, q=2)
        masked = dense_weights(w, 0.0) * np.asarray(dense_flags(w), dtype=float)
        assert stress(y, w, d, 0.0) == pytest.approx(
            oracle_stress(y, masked, d), rel=1e-10
        )

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_kernel_matches_oracle_relative_to_weighted_dissimilarities(self, epsilon):
        # Each distance rounds relative to itself, so two ways of computing
        # it move the stress by about eps sqrt(stress * sum w d^2): relative
        # to sum w d^2, not to the stress.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m, q = int(rng.integers(2, 25)), int(rng.integers(1, 4))
            y, w, d = random_instance(rng, m=m, q=q)
            one_way = weight_matrix(np.triu(rng.random((m, m)) < 0.3, 1))
            everything = weight_matrix(~np.eye(m, dtype=bool))
            for w in (w, one_way, everything):
                weights = dense_weights(w, epsilon)
                if not weights.any():
                    continue
                scale = (weights * d**2).sum()
                want = oracle_stress(y, weights, d)
                assert abs(stress(y, w, d, epsilon) - want) <= 1e-12 * scale

    @pytest.mark.parametrize("fixture", [
        make_ordered_bundles(6, 6, reverse_last=True, seed=0),
        make_ordered_bundles(20, 50, reverse_last=True, seed=0),
    ], ids=["q3-golden", "ordered-3d"])
    def test_keeps_its_digits_at_a_good_fit(self, fixture):
        # Near a good q = 3 fit, sum d^2 - 2 sum d delta + sum delta^2 would
        # cancel to about ten digits. The reported stress must agree with an
        # exact sum over the same distances.
        layout = fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=3, max_iters=100)
        res = optimize(w, d, initial_embedding(layout, cfg), cfg)
        weights = dense_weights(w, cfg.epsilon)
        upper = np.triu_indices(layout.m, 1)
        err = unpack(d, layout.m)[upper] - distances(res.embedding, res.embedding)[upper]
        want = math.fsum((weights + weights.T)[upper] * err * err)
        assert abs(res.stress - want) <= 1e-14 * want

    def test_dimension_mismatch(self):
        y, w, d = two_point_instance()
        bad = np.zeros((3, 3))
        with pytest.raises(ValueError, match="mismatch"):
            optimize(w, bad, y, OptimizerConfig())

    def test_dense_dissimilarities_refused(self, ordered_fixture):
        # d has one form, the packed upper row blocks; an (M, M) matrix of
        # the same values is refused, naming the packed length.
        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        y = initial_embedding(layout, OptimizerConfig())
        message = (rf"^dimension mismatch: d must be the {len(d)} packed dissimilarities "
                   rf"of w's 18 edges, not shape \(18, 18\)$")
        with pytest.raises(ValueError, match=message):
            optimize(w, unpack(d, layout.m), y, OptimizerConfig())


class TestSmacofStep:
    def test_stationary_point_unchanged(self):
        y, w, d = two_point_instance(y_vals=(0.0, 2.0))
        y2 = smacof_step(y, w, d, 0.0)
        assert stress(y2, w, d, 0.0) == pytest.approx(0.0, abs=1e-20)
        assert abs(y2[0, 0] - y2[1, 0]) == pytest.approx(2.0)

    def test_two_point_closed_form(self):
        # Guttman transform for two points lands on the target distance.
        y, w, d = two_point_instance()
        y2 = smacof_step(y, w, d, 0.0)
        assert abs(y2[0, 0] - y2[1, 0]) == pytest.approx(2.0, abs=1e-12)
        assert stress(y2, w, d, 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_descent_over_100_steps(self):
        rng = np.random.default_rng(21)
        y, w, d = random_instance(rng, m=12, q=2)
        s = stress(y, w, d, 0.1)
        for _ in range(100):
            y = smacof_step(y, w, d, 0.1)
            s_next = stress(y, w, d, 0.1)
            assert s_next <= s * (1 + 1e-12)
            s = s_next

    def test_all_zero_weights_rejected(self):
        w = weight_matrix(np.zeros((3, 3), dtype=bool))
        d = np.ones((3, 3)) - np.eye(3)
        y = np.zeros((3, 1))
        with pytest.raises(ValueError, match="^all weights are zero; nothing to optimize$"):
            smacof_step(y, w, d, 0.0)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_shared_pass_is_skipped_at_epsilon_zero(self, epsilon):
        # u = 2 epsilon weighs the pass over d's row blocks, one distances()
        # call each; at u = 0 every term of that pass would be zeroed.
        y, w, d = random_instance(np.random.default_rng(8), m=300, q=2)
        d = pack(d)
        plan = peacock.coloring._prepare(w, d, epsilon)
        blocks = len(list(upper_row_blocks(300)))
        counted = mock.Mock(side_effect=distances)
        with mock.patch.object(peacock.coloring, "distances", counted):
            peacock.coloring._smacof_step(y, d, plan)
        assert blocks > 1
        assert counted.call_count == (0 if epsilon == 0 else blocks)


def assert_matches_pinv(y, w, d, epsilon):
    want = oracle_smacof_step(y, w, d, epsilon)
    got = smacof_step(y, w, d, epsilon)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def assert_collapsed_stress(w, d, epsilon):
    # The stop rule's noise scale, the stress at y = 0, is the sum of w d^2
    # over ordered pairs.
    want = (dense_weights(w, epsilon) * d * d).sum()
    assert abs(stress(np.zeros((len(d), 1)), w, d, epsilon) - want) <= 1e-12 * want


def assert_same_plan(got, want):
    u, blocks, pairs = got
    assert u == want[0]
    assert len(blocks) == len(want[1])
    for (idx, inv), (want_idx, want_inv) in zip(blocks, want[1]):
        assert np.array_equal(idx, want_idx) and np.array_equal(inv, want_inv)
    assert all(np.array_equal(x, y) for x, y in zip(pairs, want[2], strict=True))


class TestPrepare:
    """The block inverses of u M I + L_R against the SVD pseudo-inverse of V."""

    def test_random_instance(self):
        for seed in range(20):
            y, w, d = random_instance(np.random.default_rng(seed), m=12, q=2)
            assert_matches_pinv(y, w, d, 0.1)
            assert_collapsed_stress(w, d, 0.1)

    def test_random_instance_several_components(self):
        n_components = []
        for seed in range(40):
            y, w, d = random_instance(np.random.default_rng(seed), m=6, q=2)
            if not dense_flags(w).any():
                continue
            assert_matches_pinv(y, w, d, 0.0)
            assert_collapsed_stress(w, d, 0.0)
            _, blocks, _ = peacock.coloring._prepare(w, pack(d), 0.0)
            n_components.append(sum(len(idx) for idx, *_ in blocks))
        assert max(n_components) > 2

    def test_edges_without_partners(self):
        layout = random_layout(np.random.default_rng(5), m=30, max_controls=6)
        w = build_weight_matrix(layout, DetectionParams(t_abs=4.0, t_frac=None))
        alone = ~(dense_flags(w) | dense_flags(w).T).any(axis=1)
        assert 0 < alone.sum() < layout.m
        y = initial_embedding(layout, OptimizerConfig(q=3))
        assert_matches_pinv(y, w, unpack(build_dissimilarity_matrix(layout), layout.m), 0.0)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_every_pair_flagged_both_ways(self, epsilon):
        # u is then the flagged weight 2, and every block is a scalar.
        y, _, d = random_instance(np.random.default_rng(6), m=12, q=2)
        w = weight_matrix(~np.eye(12, dtype=bool))
        _, blocks, _ = peacock.coloring._prepare(w, pack(d), epsilon)
        assert [idx.shape for idx, *_ in blocks] == [(12, 1)]
        assert_matches_pinv(y, w, d, epsilon)

    def test_every_pair_flagged_skips_the_pair_list(self):
        # Crossing bundles flag all 400 * 399 ordered pairs: u = 2 and no
        # pair is residual, so nothing is read per pair. Reading them held
        # 3.2 MB, about 20 bytes a pair; the plan itself takes 39 kB.
        layout = make_crossing_bundles(8, 50).layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        assert w.bundled_pair_count == layout.m * (layout.m - 1)
        tracemalloc.start()
        try:
            plan = peacock.coloring._prepare(w, d, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        u, blocks, (a, b, r, d_ab) = plan
        assert peak <= w.bundled_pair_count
        assert u == 2.0 and len(a) == len(b) == len(r) == len(d_ab) == 0
        assert [idx.shape for idx, *_ in blocks] == [(layout.m, 1)]
        want = (dense_weights(w, 0.001) * oracle_dissimilarity(layout) ** 2).sum()
        collapsed = peacock.coloring._smacof_step(np.zeros((layout.m, 1)), d, plan)[0]
        assert abs(collapsed - want) <= 1e-14 * want

    def test_squared_sum_is_half_the_dense_one(self):
        # 1000 edges span 17 row blocks, whose diagonal squares hold their
        # pairs twice; the stress at y = 0 counts each pair once per way.
        layout = make_ordered_bundles(40, 25, reverse_last=True, seed=0).layout
        w = build_weight_matrix(layout, DetectionParams())
        dense = oracle_dissimilarity(layout)
        d = build_dissimilarity_matrix(layout)
        plan = peacock.coloring._prepare(w, d, 0.001)
        collapsed = peacock.coloring._smacof_step(np.zeros((layout.m, 1)), d, plan)[0]
        want = (dense_weights(w, 0.001) * dense * dense).sum()
        assert abs(collapsed - want) <= 1e-14 * want

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3, 1.0])
    def test_reads_d_only_at_the_residual_pairs(self, epsilon):
        # d is NaN but for the pairs whose symmetrized weight is above u, the
        # smallest: the plan must not change. Bundle-wide flags (reversed
        # last bundle) and one-way flags (a random upper triangle).
        layout = make_ordered_bundles(6, 6, reverse_last=True, seed=0).layout
        dense = oracle_dissimilarity(layout)
        rng = np.random.default_rng(3)
        one_way = weight_matrix(np.triu(rng.random((layout.m, layout.m)) < 0.3, 1))
        off = ~np.eye(layout.m, dtype=bool)
        for w in build_weight_matrix(layout, DetectionParams()), one_way:
            w_sym = dense_weights(w, epsilon) + dense_weights(w, epsilon).T
            residual = off & (w_sym > w_sym[off].min())
            d, masked = pack(dense), pack(np.where(residual, dense, np.nan))
            assert np.isnan(masked).sum() > len(masked) // 2
            want = peacock.coloring._prepare(w, d, epsilon)
            got = peacock.coloring._prepare(w, masked, epsilon)
            assert_same_plan(got, want)
            if epsilon == 0:  # u = 0: no iteration reads d beyond the pairs
                cfg = OptimizerConfig(q=2, epsilon=0.0)
                y = initial_embedding(layout, cfg)
                got, want = optimize(w, masked, y, cfg), optimize(w, d, y, cfg)
                assert np.array_equal(got.embedding, want.embedding)
                assert (got.stress, got.n_iters, got.stop_reason) == (
                    want.stress, want.n_iters, want.stop_reason)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_asymmetric_flags(self, epsilon):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            y, _, d = random_instance(rng, m=10, q=3)
            # One-way flags only, then every pair flagged one way and some
            # both ways, so that u = 1 + epsilon.
            one_way = np.triu(rng.random((10, 10)) < 0.3, 1)
            assert_matches_pinv(y, weight_matrix(one_way), d, epsilon)
            tournament = np.triu(rng.random((10, 10)) < 0.5, 1)
            tournament |= np.tril(~tournament.T, -1) | (rng.random((10, 10)) < 0.2)
            w = weight_matrix(tournament)
            off = ~np.eye(10, dtype=bool)
            weights = dense_weights(w, epsilon)
            assert (weights + weights.T)[off].min() == 1.0 + epsilon
            assert_matches_pinv(y, w, d, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 0.001, 1.0])
    def test_residual_weights_match_the_detected_flags(self, epsilon):
        # Reversed last bundles leave pairs flagged one way in either
        # direction beside the many flagged both ways.
        layout = make_ordered_bundles(100, 25, reverse_last=True, seed=0).layout
        params = DetectionParams()
        flags = detect_flags(layout, params.resolve_t(layout), params.k_min)
        upper = np.triu(np.ones_like(flags), 1)
        assert [(upper & f).sum() for f in (flags & ~flags.T, ~flags & flags.T, flags & flags.T)] \
            == [240, 284, 15003]
        w = build_weight_matrix(layout, params)
        d = build_dissimilarity_matrix(layout)
        _, _, (a, b, r, d_ab) = peacock.coloring._prepare(w, d, epsilon)
        w_sym = np.where(flags, 1.0, epsilon) + np.where(flags.T, 1.0, epsilon)
        res = np.where(upper, w_sym - 2.0 * epsilon, 0.0)
        want_a, want_b = np.nonzero(res > 0)
        order = np.lexsort((b, a))
        assert np.array_equal(a[order], want_a) and np.array_equal(b[order], want_b)
        assert np.array_equal(r[order], res[want_a, want_b])
        assert np.array_equal(d_ab[order], unpack(d, layout.m)[want_a, want_b])

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
        w = weight_matrix(flags)
        # Everything but the block fits.
        budget = peacock.bundling.check_budget(m, w.bundled_pair_count, 1)
        monkeypatch.setattr(peacock.bundling, "DENSE_BUDGET", budget)
        monkeypatch.setattr(np.linalg, "inv", None)
        with pytest.raises(ValueError, match="M=20 edges, P=19 flagged pairs and a largest "
                                             "component of c=20 edges"):
            peacock.coloring._prepare(w, pack(np.zeros((m, m))), 0.01)

    def test_plan_keeps_one_inverse_and_the_flat_pairs(self):
        # A neighbour-only chain of M = 1000 edges is one component of
        # c = M: of c x c arrays, the plan keeps only the inverse, and the
        # residual pairs take a few words each.
        m = 1000
        flags = np.zeros((m, m), dtype=bool)
        flags[np.arange(m - 1), np.arange(1, m)] = True
        w = weight_matrix(flags)
        d = pack(np.zeros((m, m)))
        tracemalloc.start()
        try:
            plan = peacock.coloring._prepare(w, d, 0.01)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [block[0].shape for block in plan[1]] == [(1, m)]
        assert 8 * m * m <= held <= 8 * m * m + 64 * m


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
        y = initial_embedding(layout, OptimizerConfig(q=q))
        assert np.array_equal(y, oracle_projection_init(layout, q))
        if q == 3:  # edge lengths differ, so the third axis is the half-length
            length = np.hypot(*((layout.ends[:, 1] - layout.ends[:, 0]) / 2.0).T)
            want = (length - length.mean()) / length.std()
            assert np.allclose(y[:, 2], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fixture", [
        make_ordered_bundles(6, 6, reverse_last=True, seed=0),
        make_ordered_bundles(20, 50, reverse_last=True, seed=0),
        make_crossing_bundles(8, 50, seed=0),
        make_crossing_bundles(3, 5, seed=1),
        make_crossing_bundles(4, 8, seed=0),
    ], ids=["criterion-6", "ordered-3d", "crossing-8x50", "crossing-3x5", "crossing-4x8"])
    def test_q3_start_has_full_rank(self, fixture):
        # A third column linear in the first two would keep every iterate in
        # their plane; the midpoints' x + y had sigma_3 = 7e-15 on the ordered
        # layouts. Every crossing edge has one length, so a half-length column
        # held only rounding noise (8 x 50) or was 0.
        layout = fixture.layout
        y = initial_embedding(layout, OptimizerConfig(q=3))
        sigma = np.linalg.svd(y, compute_uv=False)
        assert sigma[2] >= 0.1 * sigma[0]
        assert np.array_equal(y[:, 2], oracle_projection_init(layout, 3)[:, 2])

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_every_tie_broken(self, q):
        # Each spoke's middle edge has its midpoint at the origin; in x, all
        # of spoke 0 sits at 0 and spokes 1 and 2 mirror each other. At
        # q = 3 the third axis, hx², separates spoke 0's middle edge.
        layout = make_crossing_bundles(3, 5, seed=1).layout
        plain = oracle_projection_init(layout, q)
        y = initial_embedding(layout, OptimizerConfig(q=q))
        gap = np.abs(y[:, None] - y[None]).max(axis=2) + np.eye(layout.m)
        assert gap.min() >= 0.5 * peacock.coloring._TIE_STEP
        plain_gap = np.abs(plain[:, None] - plain[None]).max(axis=2) + np.eye(layout.m)
        tied = (plain_gap < 1e-9).any(axis=1)
        assert tied.sum() == {1: 15, 2: 3, 3: 2}[q]
        assert np.array_equal(y[~tied], plain[~tied])
        assert np.abs(y - plain).max() < 1e-5

    @pytest.mark.parametrize("bundles, edges, q", [(3, 5, 1), (3, 5, 3), (6, 10, 1)])
    def test_permuting_edge_ids_permutes_init_and_colors(self, bundles, edges, q):
        layout = make_crossing_bundles(bundles, edges, seed=1).layout
        cfg = OptimizerConfig(q=q)
        perm = np.random.default_rng(2).permutation(layout.m)
        moved = permuted(layout, perm)
        y = initial_embedding(layout, cfg)
        assert np.allclose(initial_embedding(moved, cfg), y[perm], rtol=0, atol=1e-12)
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
        cfg = OptimizerConfig()
        y = initial_embedding(layout, cfg)
        res = optimize(w, d, y, cfg)
        with mock.patch.object(peacock.coloring, "_prepare", oracle_prepare):
            want = optimize(w, d, y, cfg)
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
        res = optimize(w, pack(d), gaussian_start(1, 3, 2),
                       OptimizerConfig(q=2, rel_tol=1e-12, epsilon=0.0))
        y = res.embedding
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(y[i] - y[j]) == pytest.approx(side, abs=1e-6)

    def test_all_zero_weights_error(self):
        w = weight_matrix(np.zeros((2, 2), dtype=bool))
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="^all weights are zero; nothing to optimize$"):
            optimize(w, pack(d), gaussian_start(0, 2, 1), OptimizerConfig(epsilon=0.0))

    def test_deterministic(self, ordered_fixture):
        from peacock.bundling import DetectionParams, build_weight_matrix
        from peacock.dissimilarity import build_dissimilarity_matrix

        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=2)
        a = optimize(w, d, initial_embedding(layout, cfg), cfg)
        b = optimize(w, d, initial_embedding(layout, cfg), cfg)
        assert (a.embedding == b.embedding).all()
        assert a.stress == b.stress and a.n_iters == b.n_iters

    def test_stop_reason_tolerance(self):
        # The two-point instance of acceptance criterion 5.
        w = weight_matrix(np.array([[False, True], [True, False]]))
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        res = optimize(w, pack(d), gaussian_start(7, 2, 1),
                       OptimizerConfig(q=1, max_iters=50, epsilon=0.0))
        assert res.stop_reason == "tolerance"
        assert res.converged

    def test_stop_reason_max_iters(self, ordered_fixture):
        from peacock.bundling import DetectionParams, build_weight_matrix
        from peacock.dissimilarity import build_dissimilarity_matrix

        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=1, max_iters=1)
        res = optimize(w, d, initial_embedding(layout, cfg), cfg)
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
        res = optimize(w, pack(d), gaussian_start(7, 2, 1),
                       OptimizerConfig(q=1, max_iters=50, epsilon=0.0))
        assert res.stop_reason == "stress_increase"
        assert not res.converged

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-12, 1e-15])
    def test_exact_fit_stops_on_tolerance(self, rel_tol):
        # Every pair flagged and epsilon = 0, with d the distances between m
        # points in R^q: the optimum has stress 0, so a run ends on rounding
        # noise, which the stop rule must not call a rise. That noise is
        # about eps sqrt(stress * sum w d^2), far above eps * stress.
        reasons = []
        for m, q in (3, 2), (4, 3):
            w = weight_matrix(~np.eye(m, dtype=bool))
            cfg = OptimizerConfig(q=q, max_iters=500, rel_tol=rel_tol, epsilon=0.0)
            for seed in range(30):
                rng = np.random.default_rng(seed)
                points = rng.standard_normal((m, q)) * rng.uniform(0.1, 1e3)
                d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
                reasons.append(optimize(w, pack(d), gaussian_start(seed, m, q), cfg).stop_reason)
        assert reasons == ["tolerance"] * 60

    def test_rejected_extrapolation_falls_back_to_y2(self, monkeypatch):
        # A stand-in step halves y, and its stresses put G(y') = 1 between
        # y1 = 4 and y0 = 8: above y1's, so the cycle takes y2 = 2, though
        # G(y') is below y0's. The first cycle's step length is 1, so y' is
        # y2 and G(y') costs its one transform.
        stresses = {8.0: 10.0, 4.0: 5.0, 2.0: 4.0, 1.0: 7.0}
        monkeypatch.setattr(peacock.coloring, "_smacof_step",
                            lambda y, d, plan: (stresses[float(y[0, 0])], y / 2.0))
        steps = peacock.coloring._iterates(np.array([[8.0]]), None, None, 4)
        got = [(float(y[0, 0]), s, n) for y, s, n in itertools.islice(steps, 3)]
        assert got == [(8.0, 10.0, 0), (4.0, 5.0, 1), (2.0, 4.0, 3)]

    @pytest.mark.parametrize("max_iters, rel_tol", [(8, 1e-15), (500, 1e-2)])
    def test_equals_accelerated_cycles_of_dense_steps(self, max_iters, rel_tol):
        rng = np.random.default_rng(31)
        _, w, d = random_instance(rng, m=15, q=3)
        start = gaussian_start(4, 15, 3)
        cfg = OptimizerConfig(q=3, max_iters=max_iters, rel_tol=rel_tol, epsilon=0.05)
        res = optimize(w, pack(d), start, cfg)
        y, s, n, stop_reason = oracle_optimize(start, w, d, 0.05, max_iters, rel_tol)
        assert stop_reason == res.stop_reason == ("max_iters" if max_iters == 8 else "tolerance")
        assert res.n_iters == n
        assert np.abs(res.embedding - y).max() <= 1e-9 * np.abs(y).max()
        assert res.stress == pytest.approx(s, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 20), q=st.integers(1, 3),
           epsilon=st.floats(0.0, 1.0), max_iters=st.integers(1, 60))
    def test_accepted_stress_never_rises(self, seed, m, q, epsilon, max_iters):
        _, w, d = random_instance(np.random.default_rng(seed), m=m, q=q)
        seen = []

        def recorded(*args):
            for item in iterates(*args):
                seen.append(item)
                yield item

        iterates = peacock.coloring._iterates
        steps = mock.Mock(side_effect=peacock.coloring._smacof_step)
        cfg = OptimizerConfig(q=q, max_iters=max_iters, rel_tol=1e-12, epsilon=epsilon)
        with mock.patch.multiple(peacock.coloring, _iterates=recorded, _smacof_step=steps):
            try:
                res = optimize(w, pack(d), gaussian_start(seed, m, q), cfg)
            except ValueError as exc:  # no weights, and nothing else
                if str(exc) != "all weights are zero; nothing to optimize":
                    raise
                assume(False)
        # Rises are rounding only: the stress sum rounds relative to its
        # scale, the stress of the collapsed embedding.
        scale = (dense_weights(w, epsilon) * d**2).sum()
        stresses = [s for _, s, _ in seen]
        assert all(b <= a + 1e-12 * scale for a, b in zip(stresses, stresses[1:]))
        assert [n for _, _, n in seen] == sorted({n for _, _, n in seen})
        # One call per transform and one for the last iterate's stress, plus
        # one for the noise scale when the run stalls on a rise.
        stalled = res.stop_reason != "max_iters"
        rose = stalled and stresses[-1] > stresses[-2]
        assert steps.call_count - 1 - rose == res.n_iters == seen[-1][2] <= max_iters
        assert res.stress == stress(res.embedding, w, d, epsilon)
        want = oracle_stress(res.embedding, dense_weights(w, epsilon), d)
        assert res.stress == pytest.approx(want, rel=1e-10, abs=1e-12 * scale)

    def test_global_mode_takes_a_quarter_of_plain_smacofs_transforms(self, ordered_fixture):
        # Acceptance criterion 7's instance. From the full-rank start its
        # optimum is not planar: stress 11.77 where a planar one has 2,172.
        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=3, epsilon=1.0)
        start = initial_embedding(layout, cfg)
        res = optimize(w, d, start, cfg)
        assert res.stop_reason == "tolerance"
        assert res.stress <= 12
        plan = peacock.coloring._prepare(w, d, cfg.epsilon)
        s, y = peacock.coloring._smacof_step(start, d, plan)
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
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        y = initial_embedding(layout, OptimizerConfig(q=q))
        steps = peacock.coloring._iterates(y, d, peacock.coloring._prepare(w, d, epsilon), 300)
        stresses = [s for _, s, _ in steps]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(stresses, stresses[1:]))

    def test_allocates_about_one_matrix_beyond_inputs(self):
        # optimize holds no M x M array: the per-component inverses, the
        # flat residual pairs and the row-block temporaries add a fraction of
        # one. Dense weights, a component graph, V+ or B(Y) would each add
        # most of the bound or more.
        layout = make_ordered_bundles(64, 25, reverse_last=True, seed=0).layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=3, max_iters=3)
        start = initial_embedding(layout, cfg)
        optimize(w, d, start, cfg)  # leaves out first-call allocations
        tracemalloc.start()
        try:
            optimize(w, d, start, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layout.m == 800
        assert peak <= 0.25 * 8 * layout.m**2

    @pytest.mark.parametrize("shape", [(3, 1), (2, 2), (2,)])
    def test_start_of_wrong_shape_is_refused(self, shape):
        _, w, d = two_point_instance()
        with pytest.raises(ValueError, match=r"^start has shape .+, not \(2, 1\)$"):
            optimize(w, pack(d), np.zeros(shape), OptimizerConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_is_refused_before_set_up(self, monkeypatch, bad):
        # A NaN start used to spend the whole transform budget first.
        _, w, d = two_point_instance()
        monkeypatch.setattr(peacock.coloring, "_prepare", None)
        with pytest.raises(ValueError, match="^start contains non-finite values$"):
            optimize(w, pack(d), np.array([[0.0], [bad]]), OptimizerConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("epsilon", [0.0, 0.001])
    def test_non_finite_d_is_refused_before_any_step(self, ordered_fixture, epsilon, bad):
        # One NaN or inf in d used to spend the whole transform budget, and
        # an inf warned inside the step, before the embedding was refused.
        # Every flagged pair is a residual pair, read at any epsilon.
        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        dense = unpack(build_dissimilarity_matrix(layout), layout.m)
        i, j = np.argwhere(dense_flags(w))[0]
        dense[i, j] = dense[j, i] = bad
        d, cfg = pack(dense), OptimizerConfig(epsilon=epsilon)
        step = mock.patch.object(peacock.coloring, "_smacof_step",
                                 wraps=peacock.coloring._smacof_step)
        with step as spy, warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^dissimilarities contain non-finite values$"):
                optimize(w, d, initial_embedding(layout, cfg), cfg)
        assert spy.call_count == 0

    @pytest.mark.parametrize("field, value, message", [
        ("q", 2.0, r"^q must be an integer, got 2\.0$"),
        ("max_iters", 2.5, r"^max_iters must be an integer, got 2\.5$"),
        ("max_iters", 0, "^max_iters must be >= 1$"),
        ("rel_tol", 0.0, "^rel_tol must be > 0$"),
        ("rel_tol", math.nan, "^rel_tol must be > 0$"),
    ])
    def test_config_refuses_out_of_range(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(**{field: value})

    def test_config_takes_numpy_integers(self, ordered_fixture):
        cfg = OptimizerConfig(q=np.int64(3), max_iters=np.int32(2))
        y = initial_embedding(ordered_fixture.layout, cfg)
        assert y.shape == (ordered_fixture.layout.m, 3)

    def test_fixture_monotone_colors(self, ordered_fixture):
        from peacock.bundling import DetectionParams, build_weight_matrix
        from peacock.dissimilarity import build_dissimilarity_matrix

        layout = ordered_fixture.layout
        w = build_weight_matrix(layout, DetectionParams())
        d = build_dissimilarity_matrix(layout)
        cfg = OptimizerConfig(q=1)
        res = optimize(w, d, initial_embedding(layout, cfg), cfg)
        for ids in ordered_fixture.bundles:
            vals = res.embedding[ids, 0]
            diffs = np.diff(vals)
            assert (diffs > 0).all() or (diffs < 0).all()


class TestNormalizeColors:
    def test_every_pair_flagged_is_the_global_min_max(self):
        flags = ~np.eye(7, dtype=bool)
        y = np.random.default_rng(19).standard_normal((7, 3))
        table = normalize_colors(y, weight_matrix(flags))
        assert np.array_equal(table, oracle_normalize_colors(y, flags))
        assert np.array_equal(table, (y - y.min(axis=0)) / (y.max(axis=0) - y.min(axis=0)))

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
        w = weight_matrix(flags)
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

    def test_dimension_mismatch(self):
        w = weight_matrix(np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError, match="^dimension mismatch: y=2, w=3$"):
            normalize_colors(np.zeros((2, 1)), w)

    @pytest.mark.parametrize("gap, want", [(1e-8, [0.0, 1.0, 1.0]), (1e-10, [0.5, 0.5, 1.0])])
    def test_spread_of_1e_9_of_the_span_is_the_cut(self, gap, want):
        # Edges 0 and 1 are bundled both ways and lie `gap` apart; edge 2,
        # alone, makes the dimension's span 1.
        flags = np.zeros((3, 3), dtype=bool)
        flags[0, 1] = flags[1, 0] = True
        table = normalize_colors(np.array([[0.0], [gap], [1.0]]), weight_matrix(flags))
        assert table[:, 0].tolist() == want

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(17)
        m = 12
        flags = rng.random((m, m)) < 0.4
        np.fill_diagonal(flags, False)
        w = weight_matrix(flags)
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
        w = weight_matrix(flags)
        y = rng.standard_normal((m, 2))
        table = normalize_colors(y, w)
        for ids in cliques:
            for dim in range(2):
                assert table[ids, dim].min() == pytest.approx(0.0)
                assert table[ids, dim].max() == pytest.approx(1.0)

    def test_rounding_noise_is_not_stretched(self, ordered_fixture):
        # The q = 3 golden layout: along dimension 0, edges 12-17 end within
        # 5e-10 of each other, about 3e-12 of that dimension's span.
        run = run_peacock(ordered_fixture.layout, DetectionParams(),
                          OptimizerConfig(q=3, max_iters=100))
        y = run.result.embedding
        span = y.max(axis=0) - y.min(axis=0)
        noise = np.random.default_rng(0).uniform(-1, 1, y.shape) * 1e-10 * span
        moved = normalize_colors(y + noise, run.weights) - run.table
        assert np.abs(moved).max() <= 1e-6


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
        table = normalize_colors(y, weight_matrix(flags))
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

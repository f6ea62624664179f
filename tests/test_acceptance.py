"""Acceptance gate: one test per criterion, each printing a pass line."""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import (
    dense_flags,
    dense_weights,
    edges_of,
    gaussian_start,
    make_layout,
    oracle_flags,
    oracle_stress,
    pack,
    random_instance,
    random_layout,
    rigid_transform,
    unpack,
    weight_matrix,
)

from peacock.baseline import baseline_colors
from peacock.bundling import DetectionParams, build_weight_matrix
from peacock.cli import main
from peacock.coloring import OptimizerConfig, normalize_colors, optimize
from peacock.dissimilarity import build_dissimilarity_matrix
from peacock.fixtures import make_ordered_bundles
from peacock.pipeline import run_peacock
from test_coloring import smacof_step, stress


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_detection_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        layout = random_layout(rng, m=int(rng.integers(2, 41)), max_controls=12)
        t = float(rng.uniform(2.0, 10.0))
        k_min = float(rng.uniform(0.1, 0.9))
        params = DetectionParams(t_abs=t, t_frac=None, k_min=k_min)
        w = build_weight_matrix(layout, params)
        assert (dense_flags(w) == oracle_flags(layout, t, k_min)).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, f"200 random layouts, array detection == oracle, {elapsed:.1f}s")


def test_criterion_2_monotonicity():
    rng = np.random.default_rng(102)
    for _ in range(50):
        layout = random_layout(rng, m=int(rng.integers(2, 25)), max_controls=10)
        t = float(rng.uniform(2.0, 8.0))
        base = dense_flags(build_weight_matrix(
            layout, DetectionParams(t_abs=t, t_frac=None, k_min=0.5)
        ))
        wider = dense_flags(build_weight_matrix(
            layout, DetectionParams(t_abs=1.5 * t, t_frac=None, k_min=0.5)
        ))
        stricter = dense_flags(build_weight_matrix(
            layout, DetectionParams(t_abs=t, t_frac=None, k_min=0.8)
        ))
        assert (wider | ~base).all()      # flags grow with t
        assert (base | ~stricter).all()   # flags shrink with k_min
    report(2, "flags monotone in T and anti-monotone in K_min on 50 layouts")


def test_criterion_3_smacof_descent():
    rng = np.random.default_rng(103)
    for _ in range(100):
        m = int(rng.integers(3, 31))
        q = int(rng.integers(1, 4))
        epsilon = float(rng.uniform(0, 1))
        y, w, d = random_instance(rng, m=m, q=q)
        s = stress(y, w, d, epsilon)
        for _ in range(15):
            y = smacof_step(y, w, d, epsilon)
            s_next = stress(y, w, d, epsilon)
            assert s_next <= s * (1 + 1e-12)
            s = s_next
    report(3, "stress non-increasing over 100 random instances")


def test_criterion_4_stress_oracle():
    rng = np.random.default_rng(104)
    for _ in range(25):
        m = int(rng.integers(2, 20))
        q = int(rng.integers(1, 4))
        epsilon = float(rng.uniform(0, 1))
        y, w, d = random_instance(rng, m=m, q=q)
        want = oracle_stress(y, dense_weights(w, epsilon), d)
        got = stress(y, w, d, epsilon)
        assert got == pytest.approx(want, rel=1e-10)
    report(4, "stress equals naive double loop within 1e-10 relative")


def test_criterion_5_two_point_closed_form():
    w = weight_matrix(np.array([[False, True], [True, False]]))
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    res = optimize(w, pack(d), gaussian_start(7, 2, 1),
                   OptimizerConfig(q=1, max_iters=50, epsilon=0.0))
    dist = abs(res.embedding[0, 0] - res.embedding[1, 0])
    assert res.n_iters <= 50
    assert dist == pytest.approx(2.0, abs=1e-6)
    report(5, f"two-point distance {dist:.9f} after {res.n_iters} iterations")


def test_criterion_6_ordered_fixture_behavior(ordered_fixture):
    start = time.perf_counter()
    run = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    col = run.table[:, 0]
    rhos = []
    for ids, order in zip(ordered_fixture.bundles, ordered_fixture.order):
        rho = spearmanr(col[ids], order).statistic
        rhos.append(rho)
        assert abs(rho) >= 0.9
        assert col[ids].min() <= 0.05
        assert col[ids].max() >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, f"per-bundle |rho| = {[f'{abs(r):.2f}' for r in rhos]}, {elapsed:.2f}s")


def test_criterion_7_global_mode_beats_baseline(ordered_fixture):
    layout = ordered_fixture.layout
    params = DetectionParams()
    optimized = run_peacock(layout, params, OptimizerConfig(q=3, epsilon=1.0)).result.stress
    w = build_weight_matrix(layout, params)
    d = unpack(build_dissimilarity_matrix(layout), layout.m)
    base = baseline_colors(layout)
    base_stress = stress(base, w, d, 1.0)
    assert optimized < base_stress
    report(7, f"optimized stress {optimized:.4g} < baseline {base_stress:.4g}")


def test_criterion_8_rigid_motion_invariance():
    # Integer-lattice layout with a quarter-turn plus integer translation:
    # the transform is exact in floating point, so bit-identity is testable.
    rng = np.random.default_rng(108)
    edges = []
    for _ in range(20):
        pts = rng.integers(0, 200, size=(8, 2)).astype(float)
        edges.append((pts[0], pts[1], pts[2:]))
    layout = make_layout(edges)

    def quarter_turn(l):
        def mv(p):
            return (-p[1] + 31.0, p[0] - 17.0)

        return make_layout((mv(v1), mv(v2), [mv(p) for p in c]) for v1, v2, c in edges_of(l))

    params = DetectionParams(t_abs=6.0, t_frac=None)
    before_w = build_weight_matrix(layout, params)
    before_d = build_dissimilarity_matrix(layout)
    moved = quarter_turn(layout)
    after_w = build_weight_matrix(moved, params)
    after_d = build_dissimilarity_matrix(moved)
    assert (dense_flags(before_w) == dense_flags(after_w)).all()
    assert (before_d == after_d).all()

    # generic rotation: flags still invariant (distances shift only in ulps)
    generic = rigid_transform(layout, angle=0.83, dx=5.5, dy=-3.25)
    assert (
        dense_flags(build_weight_matrix(generic, params)) == dense_flags(before_w)
    ).all()
    report(8, "flags and dissimilarities bit-identical under exact rigid motion")


def test_criterion_9_cli_determinism(tmp_path):
    layout_path = tmp_path / "g.json"
    assert main(["gen", "--groups", "6", "--edges", "6", "--reverse-last",
                 "--out", str(layout_path)]) == 0
    outputs = []
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        colors = tmp_path / f"{tag}.json"
        assert main(["color", "--input", str(layout_path),
                     "--out-svg", str(svg), "--out-colors", str(colors)]) == 0
        outputs.append((svg.read_bytes(), colors.read_bytes()))
    assert outputs[0] == outputs[1]
    report(9, "repeated CLI runs are byte-identical")


def test_criterion_10_baseline_contract(ordered_fixture):
    layout = ordered_fixture.layout
    table = baseline_colors(layout)
    assert (table >= 0).all() and (table <= 1).all()

    swapped = make_layout(((v2, v1, c) for v1, v2, c in edges_of(layout)), nodes=layout.nodes)
    assert (baseline_colors(swapped) == table).all()

    raw = np.array(
        [[min(x1, x2), 0.0, min(y1, y2)] for (x1, y1), (x2, y2) in layout.ends.tolist()]
    )
    want = np.empty_like(raw)
    for c in range(3):
        lo, hi = raw[:, c].min(), raw[:, c].max()
        want[:, c] = 0.5 if hi == lo else (raw[:, c] - lo) / (hi - lo)
    assert np.allclose(table, want, atol=1e-12, rtol=0)
    report(10, "baseline swap-invariant, in range, matches recomputation")

import numpy as np
import pytest
from scipy.stats import spearmanr

from peacock.baseline import baseline_colors
from peacock.bundling import DetectionParams, build_weight_matrix
from peacock.coloring import ColorEmbedding, OptimizerConfig, stress
from peacock.dissimilarity import build_dissimilarity_matrix
from conftest import make_layout
from peacock.pipeline import StageError, run_peacock


def test_fixture_rank_correlation(ordered_fixture):
    table, diag = run_peacock(
        ordered_fixture.layout, DetectionParams(), OptimizerConfig()
    )
    col = table.col[:, 0]
    for ids, order in zip(ordered_fixture.bundles, ordered_fixture.order):
        rho = spearmanr(col[ids], order).statistic
        assert abs(rho) >= 0.9


def test_global_mode_beats_baseline(ordered_fixture):
    layout = ordered_fixture.layout
    params = DetectionParams(epsilon=1.0)
    cfg = OptimizerConfig(q=3)
    table, diag = run_peacock(layout, params, cfg)

    w = build_weight_matrix(layout, params)
    d = build_dissimilarity_matrix(layout)
    base = baseline_colors(layout)
    base_stress = stress(ColorEmbedding(m=layout.m, q=3, y=base.col.copy()), w, d)
    assert diag.stress < base_stress


def test_zero_epsilon_without_bundles_attributed_to_optimizer():
    far = make_layout([
        ((0, 0), (1, 0), [(0, 0), (1, 0)]),
        ((0, 99), (1, 99), [(0, 99), (1, 99)]),
    ])
    params = DetectionParams(t_abs=0.5, t_frac=None, epsilon=0.0)
    with pytest.raises(StageError) as err:
        run_peacock(far, params, OptimizerConfig())
    assert err.value.stage == "optimize"


def test_end_to_end_determinism(ordered_fixture):
    a, da = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    b, db = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    assert (a.col == b.col).all()
    assert da.stress == db.stress and da.iterations == db.iterations


def test_diagnostics_bundled_pairs(ordered_fixture):
    _, diag = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    w = build_weight_matrix(ordered_fixture.layout, DetectionParams())
    assert diag.bundled_pairs == int(w.bundled_flag.sum())
    assert set(diag.stage_seconds) == {"bundling", "dissimilarity", "optimize", "normalize"}

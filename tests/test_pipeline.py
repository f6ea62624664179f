import numpy as np
import pytest
from scipy.stats import spearmanr

import peacock.pipeline
from peacock.baseline import baseline_colors
from peacock.bundling import DetectionParams, build_weight_matrix
from peacock.coloring import OptimizerConfig, initial_embedding
from peacock.dissimilarity import build_dissimilarity_matrix
from peacock.fixtures import make_crossing_bundles, make_ordered_bundles
from peacock.model import GraphLayout
from conftest import dense_flags, make_layout
from peacock.pipeline import StageError, read_rgb, run_peacock
from test_coloring import stress


def test_fixture_rank_correlation(ordered_fixture):
    run = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    col = run.table[:, 0]
    for ids, order in zip(ordered_fixture.bundles, ordered_fixture.order):
        rho = spearmanr(col[ids], order).statistic
        assert abs(rho) >= 0.9


def test_global_mode_beats_baseline(ordered_fixture):
    layout = ordered_fixture.layout
    params = DetectionParams(epsilon=1.0)
    cfg = OptimizerConfig(q=3)
    run = run_peacock(layout, params, cfg)

    w = build_weight_matrix(layout, params)
    d = build_dissimilarity_matrix(layout)
    base = baseline_colors(layout)
    base_stress = stress(base, w, d)
    assert run.result.stress < base_stress


@pytest.mark.parametrize("k", [-3, 2])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("fixture", [
    make_ordered_bundles(6, 6, reverse_last=True, seed=0),
    make_crossing_bundles(3, 5, seed=1),
], ids=["ordered", "crossing"])
def test_scaling_layout_scales_only_stress(fixture, q, k):
    # Scaling by a power of two is exact, and so is every step that follows
    # from it: the fractional threshold, d, and each Guttman transform.
    layout, s = fixture.layout, 2.0**k
    scaled = GraphLayout(points=layout.points * s, offsets=layout.offsets,
                         ends=layout.ends * s, nodes=layout.nodes)
    run = run_peacock(layout, DetectionParams(), OptimizerConfig(q=q))
    scaled_run = run_peacock(scaled, DetectionParams(), OptimizerConfig(q=q))
    assert np.array_equal(scaled_run.table, run.table)
    assert scaled_run.result.n_iters == run.result.n_iters
    assert scaled_run.result.stress == pytest.approx(run.result.stress * 4.0**k, rel=1e-12)


def test_zero_epsilon_without_bundles_attributed_to_optimizer():
    far = make_layout([
        ((0, 0), (1, 0), [(0, 0), (1, 0)]),
        ((0, 99), (1, 99), [(0, 99), (1, 99)]),
    ])
    params = DetectionParams(t_abs=0.5, t_frac=None, epsilon=0.0)
    with pytest.raises(StageError) as err:
        run_peacock(far, params, OptimizerConfig())
    assert err.value.stage == "optimize"


@pytest.mark.parametrize("q", [0, 4])
def test_bad_q_is_refused_before_any_stage(ordered_fixture, monkeypatch, q):
    def stage(*args):
        raise AssertionError("a stage ran")

    for name in ("build_weight_matrix", "build_dissimilarity_matrix", "optimize",
                 "normalize_colors"):
        monkeypatch.setattr(peacock.pipeline, name, stage)
    with pytest.raises(ValueError, match=f"q must be 1, 2 or 3, got {q}"):
        run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig(q=q))


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        OptimizerConfig(seed=-1)


def test_stage_outputs_are_read_only(ordered_fixture):
    layout = ordered_fixture.layout
    run = run_peacock(layout, DetectionParams(), OptimizerConfig())
    outputs = [run.table, run.result.embedding, build_dissimilarity_matrix(layout),
               baseline_colors(layout)]
    for init in ("endpoint-projection", "seeded-random"):
        outputs.append(initial_embedding(layout.m, OptimizerConfig(init=init), layout))
    assert not any(a.flags.writeable for a in outputs)


def test_end_to_end_determinism(ordered_fixture):
    a = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    b = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    assert (a.table == b.table).all()
    assert a.result.stress == b.result.stress and a.result.n_iters == b.result.n_iters


def test_diagnostics_bundled_pairs(ordered_fixture):
    run = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    w = build_weight_matrix(ordered_fixture.layout, DetectionParams())
    assert run.weights.bundled_pair_count == int(dense_flags(w).sum())
    assert set(run.stage_seconds) == {"bundling", "dissimilarity", "optimize", "normalize"}


@pytest.mark.parametrize(
    "text, reason",
    [
        ("5", "not a color dump (not a JSON object)"),
        ("null", "not a color dump (not a JSON object)"),
        ('["rgb"]', "not a color dump (not a JSON object)"),
        ('{"q": 1}', "not a color dump (missing 'rgb')"),
        ("{bad", "Expecting property name enclosed in double quotes"),
    ],
)
def test_read_color_dump_rejects_non_dump(tmp_path, text, reason):
    path = tmp_path / "colors.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_rgb(path)
    assert str(info.value).startswith(f"{path}: {reason}")

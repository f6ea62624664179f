import json

import numpy as np
import pytest

import peacock.bundling
import peacock.pipeline
from peacock.baseline import baseline_colors
from peacock.bundling import DetectionParams, build_weight_matrix, dump_bundled_pairs
from peacock.coloring import OptimizeResult, OptimizerConfig, colors_to_display, initial_embedding
from peacock.dissimilarity import build_dissimilarity_matrix
from peacock.fixtures import make_crossing_bundles, make_ordered_bundles
from peacock.model import GraphLayout
from conftest import dense_flags, make_layout
from peacock.pipeline import StageError, read_rgb, run_peacock, write_color_dump


@pytest.mark.parametrize("k", [-3, 2, 192])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("fixture", [
    make_ordered_bundles(6, 6, reverse_last=True, seed=0),
    make_crossing_bundles(3, 5, seed=1),
], ids=["ordered", "crossing"])
def test_scaling_layout_scales_only_stress(fixture, q, k):
    # Scaling by a power of two is exact, and so is every step that follows
    # from it: the fractional threshold, d, and each Guttman transform.
    # 2**192 takes the largest coordinate to 6.3e59, just below the layout's
    # bound of 1e60, where no stage may overflow (a warning fails the test).
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
    params = DetectionParams(t_abs=0.5, t_frac=None)
    with pytest.raises(StageError) as err:
        run_peacock(far, params, OptimizerConfig(epsilon=0.0))
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


def test_stage_outputs_are_read_only(ordered_fixture):
    layout = ordered_fixture.layout
    run = run_peacock(layout, DetectionParams(), OptimizerConfig())
    outputs = [run.table, run.result.embedding, build_dissimilarity_matrix(layout),
               baseline_colors(layout), initial_embedding(layout, OptimizerConfig())]
    assert not any(a.flags.writeable for a in outputs)


def test_diagnostics_bundled_pairs(ordered_fixture):
    run = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
    w = build_weight_matrix(ordered_fixture.layout, DetectionParams())
    assert run.weights.bundled_pair_count == int(dense_flags(w).sum())
    assert set(run.stage_seconds) == {"bundling", "dissimilarity", "optimize", "normalize"}


@pytest.mark.parametrize("q", [1, 3])
def test_pair_batches_leave_outputs_unchanged(ordered_fixture, monkeypatch, q):
    # Detection examines candidate point pairs in batches of whole edges; a
    # budget of 7 candidates puts each edge in a batch of its own.
    layout, params, cfg = ordered_fixture.layout, DetectionParams(), OptimizerConfig(q=q)
    want = run_peacock(layout, params, cfg)
    monkeypatch.setattr(peacock.bundling, "PAIR_BUDGET", 7)
    got = run_peacock(layout, params, cfg)
    batches = peacock.bundling._detect(layout.points, layout.offsets, params.resolve_t(layout),
                                       params.k_min)
    assert len(list(batches)) == layout.m
    assert (got.result.embedding == want.result.embedding).all()
    assert (got.table == want.table).all()
    assert dump_bundled_pairs(got.weights) == dump_bundled_pairs(want.weights)


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


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("stress", [1766.3115389953603, 2.5e-27, None])
def test_color_dump_is_what_json_writes(tmp_path, q, stress):
    # Values that repr writes in fixed and in exponent notation, and the ends.
    rng = np.random.default_rng(q)
    table = np.concatenate([[[0.0] * q, [1.0] * q, [0.5] * q, [1e-7] * q],
                            rng.random((6, q)), rng.random((2, q)) * 1e-20])
    result = None if stress is None else OptimizeResult(table, stress, 7, "tolerance")
    path = tmp_path / "colors.json"
    write_color_dump(path, table, result)
    doc = {
        "q": q,
        "colors": [[float(v) for v in row] for row in table],
        "rgb": [[float(v) for v in row] for row in colors_to_display(table)],
        "stress": stress,
        "iters": 0 if stress is None else 7,
    }
    assert path.read_text() == json.dumps(doc, indent=1) + "\n"

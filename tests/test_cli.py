import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import peacock.bundling
from peacock.bundling import DetectionParams, build_weight_matrix
from peacock.cli import build_parser, main
from peacock.coloring import OptimizerConfig, initial_embedding, normalize_colors, optimize
from peacock.dissimilarity import build_dissimilarity_matrix
from peacock.fixtures import make_crossing_bundles
from peacock.model import GraphLayout, load_layout, save_layout

DATA = Path(__file__).parent / "data"


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "g.json"
    code = main(
        [
            "gen", "--style", "ordered", "--groups", "6", "--edges", "6",
            "--reverse-last", "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_color_happy_path(tmp_path, fixture_file):
    svg = tmp_path / "g.svg"
    code = main(["color", "--input", str(fixture_file), "--out-svg", str(svg)])
    assert code == 0
    assert svg.read_text().startswith("<?xml")


def test_epsilon_out_of_range_is_usage_error(tmp_path, fixture_file, capsys):
    code = main(["color", "--input", str(fixture_file), "--epsilon", "2"])
    assert code == 2
    assert "[0.0, 1.0]" in capsys.readouterr().err


def test_missing_input_is_validation_error(tmp_path, capsys):
    code = main(["color", "--input", str(tmp_path / "nope.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("peacock: error") and err.count("\n") == 1


def test_gen_color_rank_correlation(tmp_path, fixture_file):
    truth = json.loads((tmp_path / "g.truth.json").read_text())
    colors = tmp_path / "colors.json"
    code = main(["color", "--input", str(fixture_file), "--out-colors", str(colors)])
    assert code == 0
    doc = json.loads(colors.read_text())
    assert doc["q"] == 1
    col = np.array(doc["colors"])[:, 0]
    for ids, order in zip(truth["bundles"], truth["order"]):
        rho = spearmanr(col[ids], order).statistic
        assert abs(rho) >= 0.9


def test_baseline_method(tmp_path, fixture_file):
    colors = tmp_path / "base.json"
    code = main(
        ["color", "--input", str(fixture_file), "--method", "baseline",
         "--out-colors", str(colors)]
    )
    assert code == 0
    doc = json.loads(colors.read_text())
    assert doc["q"] == 3
    assert doc["stress"] is None and doc["iters"] == 0


def test_dump_bundles(tmp_path, fixture_file):
    dump = tmp_path / "bundles.json"
    assert main(
        ["color", "--input", str(fixture_file), "--dump-bundles", str(dump)]
    ) == 0
    pairs = json.loads(dump.read_text())
    assert pairs and all(set(p) == {"i", "j"} for p in pairs)
    keys = [(p["i"], p["j"]) for p in pairs]
    assert keys == sorted(keys)


def test_render_subcommand(tmp_path, fixture_file):
    colors = tmp_path / "colors.json"
    svg = tmp_path / "direct.svg"
    svg2 = tmp_path / "rendered.svg"
    assert main(
        ["color", "--input", str(fixture_file),
         "--out-colors", str(colors), "--out-svg", str(svg)]
    ) == 0
    assert main(
        ["render", "--input", str(fixture_file), "--colors", str(colors),
         "--out", str(svg2)]
    ) == 0
    assert svg.read_bytes() == svg2.read_bytes()


def test_fans_only(tmp_path, fixture_file):
    svg = tmp_path / "fans.svg"
    assert main(
        ["color", "--input", str(fixture_file), "--fans-only", "--out-svg", str(svg)]
    ) == 0
    assert "circle" in svg.read_text()


@pytest.mark.parametrize("method", ["peacock", "baseline"])
def test_fans_only_without_svg_is_usage_error(fixture_file, capsys, method):
    code = main(["color", "--input", str(fixture_file), "--method", method, "--fans-only"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: peacock color")
    assert captured.err.endswith(
        "\npeacock color: error: --fans-only only shapes the SVG; it needs --out-svg\n"
    )


@pytest.mark.parametrize("q", [1, 3])
def test_one_detection_and_d_serve_an_epsilon_sweep(tmp_path, fixture_file, q):
    # Epsilon weighs only the pairs that are not bundled, so it is the
    # optimizer's alone: detection and d are built once for every value.
    colors = tmp_path / "colors.json"
    layout = load_layout(fixture_file)
    w = build_weight_matrix(layout, DetectionParams())
    d = build_dissimilarity_matrix(layout)
    for epsilon in (0.0, 1e-3, 0.1, 1.0):
        cfg = OptimizerConfig(q=q, epsilon=epsilon)
        want = normalize_colors(optimize(w, d, initial_embedding(layout, cfg), cfg).embedding, w)
        assert main(["color", "--input", str(fixture_file), "--dims", str(q),
                     "--epsilon", repr(epsilon), "--out-colors", str(colors)]) == 0
        assert json.loads(colors.read_text())["colors"] == want.tolist()


def test_epsilon_belongs_to_the_optimizer():
    with pytest.raises(TypeError, match="epsilon"):
        DetectionParams(epsilon=0.1)
    with pytest.raises(ValueError, match=r"^epsilon must be in \[0, 1\], got 1\.5$"):
        OptimizerConfig(epsilon=1.5)


def test_init_flag_is_gone(fixture_file, capsys):
    # The optimizer has one start; a library caller passes its own array.
    for flag, value in ("--init", "seeded-random"), ("--seed", "7"):
        assert main(["color", "--input", str(fixture_file), flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    args = ["gen", "--out", str(tmp_path / "g2.json")]
    assert main([*args, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: peacock {command}")
    assert captured.err.endswith(
        f"\npeacock {command}: error: argument --seed: --seed must be >= 0, got -1\n"
    )


@pytest.mark.parametrize("flag, value, rule", [
    ("--edges", "1", ">= 2"),
    ("--bundles", "1", ">= 2"),
    ("--groups", "3", "even and >= 2"),
    ("--groups", "0", "even and >= 2"),
])
def test_gen_refuses_what_its_generators_refuse(tmp_path, capsys, flag, value, rule):
    style = ["--style", "crossing"] if flag == "--bundles" else []
    assert main(["gen", *style, flag, value, "--out", str(tmp_path / "g.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"peacock gen: error: argument {flag}: {flag} must be {rule}, got {value}"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, noun", [
    ("--epsilon", "a number"),
    ("--t-abs", "a number"),
    ("--rel-tol", "a number"),
    ("--max-iters", "an integer"),
])
def test_flag_that_is_no_number_is_usage_error(fixture_file, capsys, flag, noun):
    assert main(["color", "--input", str(fixture_file), flag, "abc"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"peacock color: error: argument {flag}: {flag} must be {noun}, got 'abc'"]


@pytest.mark.parametrize("args", [
    ["--groups", "2", "--edges", "2"],
    ["--style", "crossing", "--bundles", "2", "--edges", "2"],
])
def test_gen_accepts_the_smallest_sizes(tmp_path, args):
    assert main(["gen", *args, "--out", str(tmp_path / "g.json")]) == 0


def test_baseline_builds_the_same_bundles_for_dump_and_fans(tmp_path, fixture_file):
    outs = {}
    for method in ("peacock", "baseline"):
        dump, svg = tmp_path / f"{method}.bundles.json", tmp_path / f"{method}.svg"
        assert main(["color", "--input", str(fixture_file), "--method", method,
                     "--dump-bundles", str(dump), "--fans-only", "--out-svg", str(svg)]) == 0
        outs[method] = dump.read_bytes(), ET.parse(svg).getroot()
    assert outs["baseline"][0] == outs["peacock"][0]
    root, ns = outs["baseline"][1], "{http://www.w3.org/2000/svg}"
    gray = [p for p in root.iter(f"{ns}path") if p.get("stroke") == "#b2b2b2"]
    assert len(gray) == 18
    assert len(root.findall(f"{ns}circle")) == 2 * 18


def test_one_edge_layout(tmp_path, capsys):
    layout = tmp_path / "one.json"
    layout.write_text(json.dumps(
        {"edges": [{"id": 0, "v1": [0, 0], "v2": [10, 0], "controls": [[5, 2]]}]}
    ))
    colors = tmp_path / "colors.json"
    assert main(["color", "--input", str(layout), "--out-colors", str(colors)]) == 0
    assert capsys.readouterr().out.endswith("after 1 iterations (tolerance)\n")
    doc = json.loads(colors.read_text())
    assert doc["colors"] == [[0.5]] and doc["stress"] == 0.0 and doc["iters"] == 1
    # At epsilon 0 nothing has weight; the run is refused as for two unbundled edges.
    assert main(["color", "--input", str(layout), "--epsilon", "0"]) == 1
    one_error_line(capsys, "peacock: error [optimize] all weights are zero")


def test_q3_color_dump_golden(tmp_path, fixture_file):
    colors = tmp_path / "colors.json"
    assert main(
        ["color", "--input", str(fixture_file), "--dims", "3", "--max-iters", "100",
         "--out-colors", str(colors)]
    ) == 0
    assert colors.read_bytes() == (DATA / "ordered_q3_golden.json").read_bytes()


@pytest.mark.parametrize("extra, reason", [([], "tolerance"), (["--max-iters", "1"], "max_iters")])
def test_summary_names_stop_reason(fixture_file, capsys, extra, reason):
    assert main(["color", "--input", str(fixture_file), *extra]) == 0
    out = capsys.readouterr().out
    pattern = r"colored 18 edges: 90 bundled pairs, stress \S+ after \d+ iterations \((\w+)\)\n"
    assert re.fullmatch(pattern, out).group(1) == reason


@pytest.mark.parametrize("method", ["peacock", "baseline"])
def test_oversize_layout_fails_in_bundling(tmp_path, fixture_file, capsys, monkeypatch, method):
    # One byte short of what M = 18 needs with every pair flagged; the
    # refusal comes before detection.
    short = peacock.bundling.check_budget(18, 18 * 17, 0) - 1
    monkeypatch.setattr(peacock.bundling, "DENSE_BUDGET", short)
    monkeypatch.setattr(peacock.bundling, "_detect", None)
    outs = {flag: tmp_path / f"out{n}" for n, flag in
            enumerate(["--out-colors", "--out-svg", "--dump-bundles"])}
    argv = ["color", "--input", str(fixture_file), "--method", method, "--fans-only"]
    assert main(argv + [str(a) for pair in outs.items() for a in pair]) == 1
    one_error_line(capsys, "peacock: error [bundling] M=18 edges, P=306 flagged pairs "
                           "and a largest component of c=0 edges would need about")
    assert not any(path.exists() for path in outs.values())


@pytest.fixture
def small_bundles_file(tmp_path):
    path = tmp_path / "small.json"
    assert main(["gen", "--groups", "6", "--edges", "3", "--out", str(path)]) == 0
    return path


def colors_and_stress(tmp_path, layout, epsilon, *extra):
    colors = tmp_path / "colors.json"
    assert main(["color", "--input", str(layout), "--epsilon", repr(epsilon), *extra,
                 "--out-colors", str(colors)]) == 0
    doc = json.loads(colors.read_text())
    return np.array(doc["colors"]), doc["stress"]


def test_tiny_epsilon_colors_as_small_epsilon_does(tmp_path, small_bundles_file):
    # u M = 2 epsilon M vanishes beside the bundle blocks' diagonal, down to
    # the smallest positive float.
    want, _ = colors_and_stress(tmp_path, small_bundles_file, 1e-12)
    for epsilon in (1e-20, 5e-324):
        got, _ = colors_and_stress(tmp_path, small_bundles_file, epsilon)
        assert np.abs(got - want).max() <= 1e-8


def test_small_epsilon_runs(small_bundles_file, capsys):
    assert main(["color", "--input", str(small_bundles_file), "--epsilon", "1e-10"]) == 0
    assert "bundled pairs" in capsys.readouterr().out


def test_stress_per_epsilon_holds_down_to_1e_20(tmp_path, small_bundles_file):
    # Every bundled pair of this layout can be embedded exactly, so the
    # optimum's stress is very nearly epsilon times a constant; rounding
    # that the transform amplified by 1 / (u M) would show as a departure.
    def stress_per_epsilon(epsilon):
        _, stress = colors_and_stress(tmp_path, small_bundles_file, epsilon, "--rel-tol", "1e-12")
        return stress / epsilon

    want = stress_per_epsilon(1e-9)
    for epsilon in np.geomspace(1e-9, 1e-20, 12):
        assert stress_per_epsilon(float(epsilon)) == pytest.approx(want, rel=1e-9)


def test_crossing_gen(tmp_path):
    path = tmp_path / "x.json"
    assert main(
        ["gen", "--style", "crossing", "--bundles", "3", "--edges", "4",
         "--out", str(path)]
    ) == 0
    doc = json.loads(path.read_text())
    assert len(doc["edges"]) == 12


def test_readme_color_flags_match_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    paragraph = readme.split("`peacock color` flags", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        opt
        for action in sub.choices["color"]._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert documented == parsed
    # Each bracketed default, as in `--kmin` [0.4], is the parser's, and
    # every numeric default is documented.
    defaults = {a.option_strings[0]: a.default for a in sub.choices["color"]._actions}
    bracketed = {flag: None if text == "none" else float(text)
                 for flag, text in re.findall(r"`(--[a-z][a-z-]*)[^`]*` \[([^\]]*)\]", paragraph)}
    assert bracketed == {flag: defaults[flag] for flag in bracketed}
    numeric = {flag for flag, v in defaults.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    assert numeric <= set(bracketed)


def test_runs_without_importing_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is a test extra whose
    # import alone would cost most of a small call. numpy.ma, which a bare
    # np.unique imports, costs about 15 ms of every call.
    script = """if True:
        import sys
        from peacock.cli import main
        layout, out = sys.argv[1], sys.argv[2]
        assert main(["gen", "--groups", "4", "--edges", "3", "--out", layout]) == 0
        for method in ("peacock", "baseline"):
            assert main(["color", "--input", layout, "--method", method, "--dims", "3",
                         "--out-colors", out + ".json", "--out-svg", out + ".svg",
                         "--fans-only", "--dump-bundles", out + ".bundles.json"]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
    """
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "g.json"), str(tmp_path / "out")],
        env=child_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "[]"]


def child_env():
    """The environment of a child interpreter that imports this peacock."""
    src = str(Path(peacock.bundling.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def has_vmhwm():
    try:
        with open("/proc/self/status") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(not has_vmhwm(), reason="no VmHWM in /proc/self/status")
@pytest.mark.parametrize("far_edge, pairs, largest", [
    (False, 1000 * 999, 1),  # every pair flagged both ways: no residual pair
    (True, 1000 * 999, 1000),  # u = 2 epsilon: every flagged pair is residual
], ids=["every-pair-flagged", "one-far-edge"])
def test_memory_model_bounds_peak(tmp_path, far_edge, pairs, largest):
    # The growth of the child's peak RSS over one run, against the bytes
    # that the optimizer's budget check computed for that run.
    script = """if True:
        import sys
        import peacock.coloring
        from peacock.cli import main

        def hwm():
            with open("/proc/self/status") as fh:
                return next(int(s.split()[1]) * 1024 for s in fh if s.startswith("VmHWM:"))

        seen = []
        check = peacock.coloring.check_budget
        peacock.coloring.check_budget = lambda *args: seen.append((*args, check(*args)))
        base = hwm()
        assert main(["color", "--input", sys.argv[1], "--t-abs", "6", "--dims", "3",
                     "--max-iters", "3"]) == 0
        print(*seen[0], hwm() - base)
    """
    layout = make_crossing_bundles(20, 50).layout
    if far_edge:
        controls = np.column_stack([np.linspace(1000, 1100, 12), np.full(12, 1000.0)])
        layout = GraphLayout(
            points=np.concatenate([layout.points, controls]),
            offsets=np.append(layout.offsets, len(layout.points) + 12),
            ends=np.concatenate([layout.ends, [[controls[0], controls[-1]]]]),
        )
    path = tmp_path / "g.json"
    save_layout(layout, path)
    done = subprocess.run([sys.executable, "-c", script, str(path)],
                          env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    m, p, c, need, growth = map(int, done.stdout.splitlines()[-1].split())
    assert (m, p, c) == (layout.m, pairs, largest)
    assert growth <= need


def one_error_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    return captured.err


def test_integer_beyond_float_range_is_one_error_line(tmp_path, fixture_file, capsys):
    doc = json.loads(fixture_file.read_text())
    doc["edges"][3]["v2"][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["color", "--input", str(path)]) == 1
    one_error_line(capsys, "peacock: error [color] edge 3: coordinate in v2 is too large")


def test_coordinates_whose_squares_overflow_are_one_error_line(tmp_path, capsys):
    # Squared distances of these coordinates overflow; such a layout used to
    # color every edge 0.5 behind six RuntimeWarnings and exit 0.
    doc = {"edges": [{"id": i, "v1": [0, i * 1e307], "v2": [1e307, i * 1e307],
                      "controls": [[5e306, i * 1e307]]} for i in range(3)]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["color", "--input", str(path)]) == 1
    one_error_line(capsys, "peacock: error [color] edge 0: coordinate in v2 is too large")


def test_nodes_not_an_array_is_one_error_line(tmp_path, fixture_file, capsys):
    doc = json.loads(fixture_file.read_text())
    doc["nodes"] = 5
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps(doc))
    assert main(["color", "--input", str(path)]) == 1
    one_error_line(capsys, "peacock: error [color] 'nodes' must be an array")


@pytest.mark.parametrize(
    "text, reason",
    [
        ('["rgb"]', "not a color dump (not a JSON object)"),
        ("5", "not a color dump (not a JSON object)"),
        ("null", "not a color dump (not a JSON object)"),
        ("{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"colors": []}', "not a color dump (missing 'rgb')"),
        ('{"rgb": [[NaN, 0, 0]]}', "'rgb' holds a value that is not a finite number"),
        ('{"rgb": [[Infinity, 0, 0]]}', "'rgb' holds a value that is not a finite number"),
        ('{"rgb": [[1, 0], [0]]}', "'rgb' holds a value that is not a finite number"),
    ],
)
def test_render_rejects_bad_color_dump(tmp_path, fixture_file, capsys, text, reason):
    colors = tmp_path / "colors.json"
    colors.write_text(text)
    out = tmp_path / "out.svg"
    assert main(["render", "--input", str(fixture_file), "--colors", str(colors),
                 "--out", str(out)]) == 1
    one_error_line(capsys, f"peacock: error [render] {colors}: {reason}")
    assert not out.exists()



@st.composite
def degenerate_color_runs(draw):
    """A layout of 1-11 edges with one-control edges and coincident points,
    its coordinates scaled by 1e-310 to 1e59, and `peacock color` flags."""
    scale = 10.0 ** draw(st.integers(-310, 59))
    coord = st.integers(-3, 3) | st.floats(-1, 1)
    point = st.tuples(coord, coord).map(lambda p: [p[0] * scale, p[1] * scale])
    edges = draw(st.lists(st.tuples(point, point, st.lists(point, min_size=1, max_size=4)),
                          min_size=1, max_size=11))
    doc = {"edges": [{"id": i, "v1": v1, "v2": v2, "controls": controls}
                     for i, (v1, v2, controls) in enumerate(edges)]}
    flags = ["--epsilon", draw(st.sampled_from(["0", "1e-3", "1"])),
             "--dims", str(draw(st.integers(1, 3)))]
    t_abs = draw(st.none() | st.integers(-300, 300))
    if t_abs is not None:
        flags += ["--t-abs", f"1e{t_abs}"]
    return doc, flags


@settings(max_examples=120, deadline=None)
@given(degenerate_color_runs())
def test_degenerate_layouts_color_in_range_or_fail_in_one_line(run):
    # Either every color is a finite value in [0, 1], or the run is refused
    # in one stage-attributed line; no warning either way.
    doc, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        layout, colors = Path(tmp) / "g.json", Path(tmp) / "c.json"
        layout.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        # Recorded, a warning cannot pass for a stage's refusal.
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["color", "--input", str(layout), *flags, "--out-colors", str(colors)])
        assert not caught
        if code == 0:
            dump = json.loads(colors.read_text())
            values = np.concatenate([np.ravel(dump["colors"]), np.ravel(dump["rgb"])])
            assert np.isfinite(values).all() and ((values >= 0) & (values <= 1)).all()
        else:
            assert code == 1
            assert err.getvalue().startswith("peacock: error [") and err.getvalue().count("\n") == 1

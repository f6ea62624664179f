import argparse
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import peacock.bundling
from peacock.cli import build_parser, main

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


def test_determinism_byte_identical(tmp_path, fixture_file):
    outs = []
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        colors = tmp_path / f"{tag}.colors.json"
        assert main(
            ["color", "--input", str(fixture_file),
             "--out-svg", str(svg), "--out-colors", str(colors)]
        ) == 0
        outs.append((svg.read_bytes(), colors.read_bytes()))
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("command", ["gen", "color"])
def test_negative_seed_is_usage_error(tmp_path, fixture_file, capsys, command):
    # seeded-random is the init that reads the seed.
    args = {
        "gen": ["gen", "--out", str(tmp_path / "g2.json")],
        "color": ["color", "--input", str(fixture_file), "--init", "seeded-random"],
    }[command]
    assert main([*args, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: peacock {command}")
    assert captured.err.endswith(
        f"\npeacock {command}: error: argument --seed: --seed must be >= 0, got -1\n"
    )


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


def test_oversize_layout_fails_in_bundling(fixture_file, capsys, monkeypatch):
    monkeypatch.setattr(peacock.bundling, "MAX_DENSE_EDGES", 17)
    assert main(["color", "--input", str(fixture_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("peacock: error [bundling] M=18 edges exceeds")
    assert captured.err.count("\n") == 1


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


def test_runs_without_importing_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is a test extra whose
    # import alone would cost most of a small call.
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
    """
    src = str(Path(peacock.bundling.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "g.json"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


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

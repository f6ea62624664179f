import argparse
import json
import re
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

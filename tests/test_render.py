import math
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import edges_of, make_layout, oracle_fans, runs_by_pair
from peacock.bundling import DetectionParams, build_weight_matrix, required_run_length
from peacock.coloring import OptimizerConfig, colors_to_display
from peacock.fixtures import make_crossing_bundles
from peacock.pipeline import run_peacock
from peacock.render import render_svg

DATA = Path(__file__).parent / "data"


def line_edge(xs, y):
    pts = [(float(x), float(y)) for x in xs]
    return (pts[0], pts[-1], pts)


def fans_of(layout, t, k_min=1.0):
    """{(i, j): (run_start, run_end, fan_in, fan_out)} of every flagged pair,
    with None where a run touches that end of its edge."""
    counts = np.diff(layout.offsets)
    return {
        (i, j): (start, end, *oracle_fans(start, end, counts[i]))
        for (i, j), (start, end) in runs_by_pair(layout, t, k_min).items()
    }


class TestFanSegments:
    def test_run_spans_everything(self):
        layout = make_layout([line_edge(range(5), 0.0), line_edge(range(5), 0.2)])
        assert fans_of(layout, t=0.5)[0, 1] == (0, 4, None, None)

    def test_interior_run(self):
        # 9 controls; only controls 2..5 are close to the partner.
        pts = [(float(x), float(y)) for x, y in enumerate([5, 5, 0, 0, 0, 0, 5, 5, 5])]
        layout = make_layout([(pts[0], pts[-1], pts), line_edge(range(9), 0.2)])
        start, end, fan_in, fan_out = fans_of(layout, t=0.5, k_min=0.25)[0, 1]
        assert (start, end) == (2, 5)
        assert fan_in == 1   # segment ending at the run's first control
        assert fan_out == 5  # segment starting at the run's last control

    def test_not_bundled_has_no_run(self):
        layout = make_layout([line_edge(range(4), 0.0), line_edge(range(4), 50.0)])
        assert fans_of(layout, t=0.5) == {}

    def test_fixture_pair_matches_brute_trace(self, ordered_fixture):
        layout = ordered_fixture.layout
        t, k_min = ordered_fixture.t, ordered_fixture.k_min
        i, j = ordered_fixture.bundles[0][:2]
        run_start, run_end, fan_in, fan_out = fans_of(layout, t, k_min)[i, j]

        # brute trace of the qualifying run
        ci, cj = (c for _, _, c in (edges_of(layout)[e] for e in (i, j)))
        k_ij = required_run_length(len(ci), len(cj), k_min)
        near = [min(math.dist(p, q) for q in cj) <= t for p in ci]
        start = next(
            r0 for r0 in range(len(near)) if all(near[r0 : r0 + k_ij]) and len(near[r0 : r0 + k_ij]) == k_ij
        )
        while start > 0 and near[start - 1]:
            start -= 1
        end = start
        while end + 1 < len(near) and near[end + 1]:
            end += 1
        assert (run_start, run_end) == (start, end)
        if fan_in is not None:
            assert fan_in < run_start
        if fan_out is not None:
            assert fan_out >= run_end


class TestRenderSvg:
    def test_single_edge_red_path(self):
        layout = make_layout([line_edge([0, 1, 2], 0.0)])
        svg = render_svg(layout, [[1.0, 0.0, 0.0]])
        assert svg.count("<path") == 1
        assert 'stroke="#ff0000"' in svg

    def test_deterministic(self, ordered_fixture):
        layout = ordered_fixture.layout
        colors = np.tile([0.2, 0.4, 0.6], (layout.m, 1))
        assert render_svg(layout, colors) == render_svg(layout, colors)

    def test_well_formed_xml_one_path_per_edge(self, ordered_fixture):
        layout = ordered_fixture.layout
        rng = np.random.default_rng(0)
        colors = rng.random((layout.m, 3))
        svg = render_svg(layout, colors)
        root = ET.fromstring(svg)
        paths = root.findall("{http://www.w3.org/2000/svg}path")
        assert len(paths) == layout.m
        for k, p in enumerate(paths):
            stroke = p.get("stroke")
            rgb = tuple(int(stroke[i : i + 2], 16) / 255 for i in (1, 3, 5))
            assert max(abs(a - b) for a, b in zip(rgb, colors[k])) <= 1 / 255

    def test_fans_only_mode(self, ordered_fixture):
        layout = ordered_fixture.layout
        params = DetectionParams()
        w = build_weight_matrix(layout, params)
        svg = render_svg(layout, np.tile([1.0, 0.0, 0.0], (layout.m, 1)), fans=w.fans)
        root = ET.fromstring(svg)
        # gray bodies plus colored endpoint circles
        assert 'stroke="#b2b2b2"' in svg
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 2 * layout.m

    def test_golden_snapshot(self, ordered_fixture):
        run = run_peacock(ordered_fixture.layout, DetectionParams(), OptimizerConfig())
        svg = render_svg(ordered_fixture.layout, colors_to_display(run.table))
        golden = DATA / "ordered_fixture_golden.svg"
        assert svg == golden.read_text()

    def test_fans_only_golden_snapshot(self):
        layout = make_crossing_bundles(3, 5, seed=1).layout
        run = run_peacock(layout, DetectionParams(), OptimizerConfig())
        svg = render_svg(layout, colors_to_display(run.table), fans=run.weights.fans)
        golden = DATA / "crossing_fans_golden.svg"
        assert svg == golden.read_text()

    def test_fans_only_heap_peak(self):
        # Every one of the 159,600 ordered pairs is flagged; the fan path
        # reads one mark per control point, never a per-pair array.
        layout = make_crossing_bundles(8, 50, seed=0).layout
        w = build_weight_matrix(layout, DetectionParams())
        rgb = np.full((layout.m, 3), 0.5)
        render_svg(layout, rgb, w.fans)  # leaves out first-call allocations
        tracemalloc.start()
        try:
            render_svg(layout, rgb, w.fans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_fans_of_another_layout_refused(self, ordered_fixture):
        layout = ordered_fixture.layout
        other = make_layout([line_edge(range(5), 0.0), line_edge(range(5), 0.2)])
        w = build_weight_matrix(other, DetectionParams())
        with pytest.raises(ValueError) as err:
            render_svg(layout, np.zeros((layout.m, 3)), fans=w.fans)
        assert str(err.value) == f"fans has 10 marks for {len(layout.points)} controls"

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (6,)])
    def test_colors_of_another_shape_refused(self, shape):
        layout = make_layout([line_edge(range(5), 0.0), line_edge(range(5), 0.2)])
        with pytest.raises(ValueError) as err:
            render_svg(layout, np.zeros(shape))
        assert str(err.value) == f"expected 2 RGB triples, got shape {shape}"

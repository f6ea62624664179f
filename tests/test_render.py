import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from peacock.bundling import DetectionParams, build_weight_matrix, required_run_length
from peacock.coloring import colors_to_display
from peacock.fixtures import make_crossing_bundles
from peacock.model import EdgeCurve, GraphLayout, Point2
from peacock.pipeline import run_peacock
from peacock.coloring import OptimizerConfig
from peacock.render import FanSegments, find_fan_segments, render_svg

DATA = Path(__file__).parent / "data"


def line_edge(eid, xs, y):
    pts = tuple(Point2(float(x), float(y)) for x in xs)
    return EdgeCurve(id=eid, v1=pts[0], v2=pts[-1], controls=pts)


class TestFanSegments:
    def test_run_spans_everything(self):
        e1 = line_edge(0, range(5), 0.0)
        e2 = line_edge(1, range(5), 0.2)
        fs = find_fan_segments(e1, e2, t=0.5, k_ij=3)
        assert fs.fan_in is None and fs.fan_out is None
        assert fs.run_start == 0 and fs.run_end == 4

    def test_interior_run(self):
        # 9 controls; only controls 2..5 are close to the partner.
        ys = [5, 5, 0, 0, 0, 0, 5, 5, 5]
        pts = tuple(Point2(float(x), float(y)) for x, y in enumerate(ys))
        e1 = EdgeCurve(id=0, v1=pts[0], v2=pts[-1], controls=pts)
        e2 = line_edge(1, range(9), 0.2)
        fs = find_fan_segments(e1, e2, t=0.5, k_ij=2)
        assert fs.run_start == 2 and fs.run_end == 5
        assert fs.fan_in == 1   # segment ending at the run's first control
        assert fs.fan_out == 5  # segment starting at the run's last control

    def test_not_bundled_raises(self):
        e1 = line_edge(0, range(4), 0.0)
        e2 = line_edge(1, range(4), 50.0)
        with pytest.raises(ValueError, match="not bundled"):
            find_fan_segments(e1, e2, t=0.5, k_ij=2)

    def test_fixture_pair_matches_brute_trace(self, ordered_fixture):
        layout = ordered_fixture.layout
        t, k_min = ordered_fixture.t, ordered_fixture.k_min
        i, j = ordered_fixture.bundles[0][:2]
        ei, ej = layout.edges[i], layout.edges[j]
        k_ij = required_run_length(ei.n_controls, ej.n_controls, k_min)
        fs = find_fan_segments(ei, ej, t, k_ij)

        # brute trace of the qualifying run
        import math

        near = []
        for p in ei.controls:
            near.append(min(math.dist((p.x, p.y), (q.x, q.y)) for q in ej.controls) <= t)
        start = next(
            r0 for r0 in range(len(near)) if all(near[r0 : r0 + k_ij]) and len(near[r0 : r0 + k_ij]) == k_ij
        )
        while start > 0 and near[start - 1]:
            start -= 1
        end = start
        while end + 1 < len(near) and near[end + 1]:
            end += 1
        assert (fs.run_start, fs.run_end) == (start, end)
        if fs.fan_in is not None:
            assert fs.fan_in < fs.run_start
        if fs.fan_out is not None:
            assert fs.fan_out >= fs.run_end


class TestRenderSvg:
    def test_single_edge_red_path(self):
        layout = GraphLayout(edges=(line_edge(0, [0, 1, 2], 0.0),))
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
        svg = render_svg(layout, np.tile([1.0, 0.0, 0.0], (layout.m, 1)), fans=w)
        root = ET.fromstring(svg)
        # gray bodies plus colored endpoint circles
        assert 'stroke="#b2b2b2"' in svg
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 2 * layout.m

    def test_golden_snapshot(self, ordered_fixture):
        table, diag = run_peacock(
            ordered_fixture.layout, DetectionParams(), OptimizerConfig()
        )
        svg = render_svg(ordered_fixture.layout, colors_to_display(table))
        golden = DATA / "ordered_fixture_golden.svg"
        assert svg == golden.read_text()

    def test_fans_only_golden_snapshot(self):
        layout = make_crossing_bundles(3, 5, seed=1).layout
        table, diag = run_peacock(layout, DetectionParams(), OptimizerConfig())
        svg = render_svg(layout, colors_to_display(table), fans=diag.weight_matrix)
        golden = DATA / "crossing_fans_golden.svg"
        assert svg == golden.read_text()

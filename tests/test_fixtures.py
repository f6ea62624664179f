import hashlib

import numpy as np
import pytest

from conftest import oracle_flags, runs_by_pair

from peacock.dissimilarity import build_dissimilarity_matrix
from peacock.fixtures import make_crossing_bundles, make_ordered_bundles
from peacock.model import layout_to_dict, load_layout, save_layout


class TestOrderedBundles:
    def test_fig1_style_graph(self, ordered_fixture):
        fx = ordered_fixture
        assert fx.layout.m == 18
        assert len(fx.bundles) == 3
        flags = oracle_flags(fx.layout, fx.t, fx.k_min)
        assert (flags == fx.expected_flags).all()

    def test_two_edges_mutually_bundled(self):
        fx = make_ordered_bundles(2, 2)
        assert fx.layout.m == 2
        flags = oracle_flags(fx.layout, fx.t, fx.k_min)
        assert flags[0, 1] and flags[1, 0]

    def test_deterministic(self):
        a = make_ordered_bundles(4, 3, reverse_last=True, seed=42)
        b = make_ordered_bundles(4, 3, reverse_last=True, seed=42)
        assert layout_to_dict(a.layout) == layout_to_dict(b.layout)

    def test_monotone_dissimilarity_in_order(self, ordered_fixture):
        d = build_dissimilarity_matrix(ordered_fixture.layout)
        for ids in ordered_fixture.bundles:
            first = ids[0]
            along = [d[first, j] for j in ids]
            assert along == sorted(along)
            assert len(set(along)) == len(along)

    def test_roundtrip_through_file(self, tmp_path, ordered_fixture):
        path = tmp_path / "fx.json"
        save_layout(ordered_fixture.layout, path)
        back = load_layout(path)
        assert layout_to_dict(back) == layout_to_dict(ordered_fixture.layout)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_ordered_bundles(3, 4)
        with pytest.raises(ValueError):
            make_ordered_bundles(4, 1)


class TestCrossingBundles:
    def test_three_bundles_cross_flags_appear(self):
        fx = make_crossing_bundles(3, 5, seed=1)
        assert fx.layout.m == 15
        flags = oracle_flags(fx.layout, fx.t, fx.k_min)
        assert (flags == fx.expected_flags).all()
        # cross-bundle pairs are flagged through the shared center
        assert flags[fx.bundles[0][0], fx.bundles[1][0]]

    def test_cross_flags_only_from_the_crossing_cell(self):
        fx = make_crossing_bundles(2, 3, seed=2)
        runs = runs_by_pair(fx.layout, fx.t, fx.k_min)
        center_lo, center_hi = 4, 7  # the central block of each corridor
        for i in fx.bundles[0]:
            for j in fx.bundles[1]:
                run_start, run_end = runs[i, j]
                assert run_start >= center_lo and run_end <= center_hi

    def test_monotone_in_t(self):
        fx = make_crossing_bundles(2, 4, seed=3)
        small = oracle_flags(fx.layout, fx.t, fx.k_min)
        large = oracle_flags(fx.layout, 1.5 * fx.t, fx.k_min)
        assert (large | ~small).all()

    def test_deterministic(self):
        a = make_crossing_bundles(3, 4, seed=9)
        b = make_crossing_bundles(3, 4, seed=9)
        assert layout_to_dict(a.layout) == layout_to_dict(b.layout)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_crossing_bundles(1, 5)


# SHA-256 of `save_layout` for the fixture shapes the benchmark colors, at
# seed 0. A change to the generators' RNG draws or to the file format
# changes the benchmark's inputs, and must show here.
@pytest.mark.parametrize("make, want", [
    (lambda: make_ordered_bundles(80, 25, reverse_last=True, seed=0),
     "685176cbbece97ea7350453d46ee4c0801270e029fb63467d44f862952112e74"),
    (lambda: make_ordered_bundles(20, 50, reverse_last=True, seed=0),
     "07a73064eb8f666912155f4d4b452993941078cf74403a7d5d93d03df75a4479"),
    (lambda: make_crossing_bundles(8, 50, seed=0),
     "bf646927d9bf008f747ac4d96c85d68d0c2734022c243294986643eace89b4eb"),
])
def test_benchmark_layout_bytes_pinned(tmp_path, make, want):
    path = tmp_path / "layout.json"
    save_layout(make().layout, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import dense_flags, oracle_flags, runs_by_pair, unpack

from peacock.bundling import DetectionParams, build_weight_matrix
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
        d = unpack(build_dissimilarity_matrix(ordered_fixture.layout), ordered_fixture.layout.m)
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
        with pytest.raises(ValueError, match="^groups must be even and >= 2$"):
            make_ordered_bundles(3, 4)
        with pytest.raises(ValueError, match="^edges_per_bundle must be >= 2$"):
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
        with pytest.raises(ValueError, match="^bundles must be >= 2$"):
            make_crossing_bundles(1, 5)
        with pytest.raises(ValueError, match="^edges_per_bundle must be >= 2$"):
            make_crossing_bundles(3, 1)


# perfbench takes a call's bundled-pair count as correct when it equals
# `expected_flags.sum()`, so at the benchmark's sizes and the CLI's default
# detection parameters the truth must be exactly what detection flags.
@pytest.mark.parametrize("make", [
    lambda: make_ordered_bundles(80, 25, reverse_last=True),
    lambda: make_ordered_bundles(20, 50, reverse_last=True),
    lambda: make_crossing_bundles(8, 50),
])
def test_detection_flags_the_truth(make):
    fx = make()
    w = build_weight_matrix(fx.layout, DetectionParams())
    assert np.array_equal(dense_flags(w), fx.expected_flags)


def test_generator_holds_no_pair_matrix():
    # `peacock gen` never reads the truth flags, M^2 bytes at M edges: a
    # generator stores the bundle-level truth and derives them on demand.
    # Its own arrays and node tuples take about 0.23 M^2 bytes at M = 5,000.
    make_ordered_bundles(2, 2)  # leaves out first-call allocations
    tracemalloc.start()
    try:
        fx = make_ordered_bundles(400, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fx.layout.m == 5000
    assert peak <= 0.5 * fx.layout.m**2


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


def fixture_digest(fx):
    """SHA-256 over everything a generator returns: the layout as JSON, the
    ground truth, the truth flags' bytes, shape and dtype, and (t, k_min)."""
    h = hashlib.sha256()
    h.update(json.dumps(layout_to_dict(fx.layout)).encode())
    h.update(json.dumps(fx.ground_truth_dict()).encode())
    flags = fx.expected_flags
    h.update(flags.tobytes())
    h.update(repr((flags.shape, flags.dtype.str, fx.t, fx.k_min)).encode())
    return h.hexdigest()


# Every fixture the tests, the CLI and the benchmark build comes from these
# two generators, so a refactor of them must leave each of these bytes alone.
@pytest.mark.parametrize("make, args, kwargs, want", [
    (make_ordered_bundles, (2, 2), {"reverse_last": False, "seed": 0},
     "d57906a3df514dcdbf488869b6b0344f7455d176aeeb6e5581fdd20049a04e62"),
    (make_ordered_bundles, (2, 2), {"reverse_last": False, "seed": 1000},
     "688f6f9c4d1d60b9a1db41cbad661c669aba05079535866d6e90d00b7267828e"),
    (make_ordered_bundles, (2, 2), {"reverse_last": True, "seed": 0},
     "26c0ed3bd8ed6050b713ae27caecb19364dd67cd412aaa848c79ce99cc722eb5"),
    (make_ordered_bundles, (2, 2), {"reverse_last": True, "seed": 1000},
     "873fa65336a6be99ddd4614bf8162b05a1dd869ef11a4cd76e8af31f6898ac04"),
    (make_ordered_bundles, (6, 6), {"reverse_last": False, "seed": 0},
     "b01ab1c434006cc2ba1f2cac7e097472e89ae89929115c496798d246c510bf4d"),
    (make_ordered_bundles, (6, 6), {"reverse_last": False, "seed": 1000},
     "a6117fb2417bc1a497dead083c357b38a396d906c720b4566d331d646ab8e1d5"),
    (make_ordered_bundles, (6, 6), {"reverse_last": True, "seed": 0},
     "dc6dadc0cd68ae372a8401e46933ccb096bcf1f1a23ada7774ca0b3d109c0643"),
    (make_ordered_bundles, (6, 6), {"reverse_last": True, "seed": 1000},
     "604c8a0fab763be014ddef70d5d0568ed25a8cea75472f3dd6c5eee70a3f7711"),
    (make_ordered_bundles, (20, 50), {"reverse_last": False, "seed": 0},
     "41bdcac56f232efbb8add9526f9d9357764622f82e2e30b0735cddb894a43b0f"),
    (make_ordered_bundles, (20, 50), {"reverse_last": False, "seed": 1000},
     "b2bdcf21c4f98d132b8514790bce97ca5944a918ad0c4a7cbea547c909a228ac"),
    (make_ordered_bundles, (20, 50), {"reverse_last": True, "seed": 0},
     "b1260657de8062504a23ce061383a5a17e352b31777470f16de68bfbbfde912a"),
    (make_ordered_bundles, (20, 50), {"reverse_last": True, "seed": 1000},
     "b6aba1e13e9cfa3be1b388d076ae9604822efe149c994db8eb6a635499d6ed98"),
    (make_ordered_bundles, (80, 25), {"reverse_last": False, "seed": 0},
     "6760aa9bde18eaccae88f896e08c53f567a9884c0c2e6b432a1906a21288b1ce"),
    (make_ordered_bundles, (80, 25), {"reverse_last": False, "seed": 1000},
     "b98441fb6831b9913814dd44c2dde7085c4cc8f75fb98f7d896439f3ce426a2f"),
    (make_ordered_bundles, (80, 25), {"reverse_last": True, "seed": 0},
     "5c896f45bbfc68680425ef835e616ea2b8dc119bb4d6f09ecfa421e72c92f901"),
    (make_ordered_bundles, (80, 25), {"reverse_last": True, "seed": 1000},
     "e52c849906ccada7d7c518591c9deed000db2d08db7e280adbdcd9686588241c"),
    (make_crossing_bundles, (2, 2), {"seed": 0},
     "57ac7ee913928eddab2f716c735b50c2f977d9c450bb18b23b0967e7e3a0d2aa"),
    (make_crossing_bundles, (2, 2), {"seed": 7},
     "19dcc7d699d086fc992325420f240bd01fac9908a32a753c608317f5fad704bf"),
    (make_crossing_bundles, (3, 5), {"seed": 0},
     "dc0a67ed4435e12c0dd2297817151a6c78e6e6898bf0a3c385c98085873eb7ef"),
    (make_crossing_bundles, (3, 5), {"seed": 7},
     "313ba5205b5b7825938012137e167ea0b3b8ba9e6d1eed6391bfe56a5793e2d0"),
    (make_crossing_bundles, (8, 50), {"seed": 0},
     "09cabd31bd76038a774d7e75210913b900d5e5251b152e03071af1b6d539d62d"),
    (make_crossing_bundles, (8, 50), {"seed": 7},
     "9819b648418b4278651ad000388a5656d0d25a59ca27483bebdb51514255d597"),
])
def test_fixture_bytes_pinned(make, args, kwargs, want):
    assert fixture_digest(make(*args, **kwargs)) == want

import json
import math
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_flags,
    dense_weights,
    detect_flags,
    edges_of,
    make_layout,
    oracle_detect,
    oracle_fans,
    oracle_first_run,
    oracle_flags,
    oracle_run_length,
    random_layout,
    rigid_transform,
    runs_by_pair,
    weight_matrix,
)

from peacock import bundling
from peacock.bundling import (
    BundleWeightMatrix,
    DetectionParams,
    _detect,
    build_weight_matrix,
    dump_bundled_pairs,
    required_run_length,
)
from peacock.fixtures import make_crossing_bundles, make_ordered_bundles
from peacock.render import render_svg


def layout_from_points(controls):
    """Edges through the given control points, with their first and last
    control as endpoints."""
    return make_layout((pts[0], pts[-1], pts) for pts in controls)


def partners(controls, t, query):
    """Edges with a control within t of the one control of edge `query`:
    detection's (control, partner edge) hits, read as runs of one control."""
    flags = detect_flags(layout_from_points(controls), t, 1e-9)
    return set(np.flatnonzero(flags[query]).tolist())


class TestRequiredRunLength:
    def test_paper_setting(self):
        assert required_run_length(10, 4, 0.4) == 4

    def test_floor_to_one(self):
        assert required_run_length(1, 1, 0.4) == 1

    def test_floor(self):
        assert required_run_length(7, 7, 0.4) == 2

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.integers(1, 30, size=2)
            k = rng.uniform(0.01, 1.0)
            assert required_run_length(a, b, k) == required_run_length(b, a, k)
            assert required_run_length(a, b, k) >= 1


class TestDetectPair:
    def test_identical_controls(self):
        layout = layout_from_points([[(0, 0), (1, 0), (2, 0), (3, 0)]] * 2)
        assert detect_flags(layout, t=0.5, k_min=1.0)[0, 1]  # a run of 4

    def test_all_far(self):
        layout = layout_from_points([[(0, 0), (1, 0)], [(0, 100), (1, 100)]])
        assert not detect_flags(layout, t=1.0, k_min=0.5).any()  # a run of 1

    def test_too_few_controls_is_false(self):
        layout = layout_from_points([[(0, 0), (1, 0)]] * 2)
        assert not detect_flags(layout, t=1.0, k_min=1.5).any()  # a run of 3 of 2

    def test_three_edge_configuration(self):
        # Edge 2 runs along y=0; edge 1 travels beside it at y=0.5 except
        # for a stray first control; edge 3 crosses edge 2 near x=6,
        # touching edge 1 nowhere and edge 2 over a run.
        controls = [
            [(-2, 3), (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5)],
            [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)],
            [(6, 1.6), (6, 0.8), (6, 0.0), (6, -0.8)],
        ]
        # k_min = 0.4 asks for a run of 2 of every pair: floor(0.4 * 5) = floor(0.4 * 7) = 2.
        t, k_min, k = 1.0, 0.4, 2
        expected = np.array([[False, True, False], [True, False, True], [False, True, False]])
        assert (detect_flags(layout_from_points(controls), t, k_min) == expected).all()
        for i, ci in enumerate(controls):
            for j, cj in enumerate(controls):
                if i != j:
                    assert oracle_detect(ci, cj, t, k) == expected[i, j]

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            layout = random_layout(rng, m=2, max_controls=8, span=10.0)
            (_, _, c1), (_, _, c2) = edges_of(layout)
            t = rng.uniform(0.5, 5.0)
            k = int(rng.integers(1, 5))
            flags = detect_flags(layout, t, (k + 0.5) / max(len(c1), len(c2)))  # a run of k
            assert flags[0, 1] == oracle_detect(c1, c2, t, k)
            assert flags[1, 0] == oracle_detect(c2, c1, t, k)


class TestSpatialGrid:
    """Detection's (control, partner edge) hits against a linear scan, and
    the batches that read them."""

    def test_single_point_query(self):
        assert partners([[(1, 1), (1, 1)], [(1, 1)], [(1, 1)]], 2.0, query=2) == {0, 1}

    def test_exact_filter_excludes_beyond_t(self):
        assert partners([[(0, 0), (0, 0)], [(1.001, 0)]], 1.0, query=1) == set()
        assert partners([[(0, 0), (0, 0)], [(1.0, 0)]], 1.0, query=1) == {0}

    def test_matches_linear_scan(self):
        # 600 controls on 150 edges whose controls scatter over the plane,
        # so most cells hold several edges and some are taken whole.
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 50, size=(600, 2))
        owner = rng.permutation(np.arange(600) % 150)
        t = 3.0
        controls = [[tuple(p) for p in pts[owner == e]] for e in range(150)]
        d = pts[:, None, :] - pts[None, :, :]
        near = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] <= t * t
        want = np.zeros((150, 150), dtype=bool)
        for a, b in zip(*np.nonzero(near)):
            want[owner[a], owner[b]] = True
        np.fill_diagonal(want, False)
        assert (detect_flags(layout_from_points(controls), t, 1e-9) == want).all()

    @pytest.mark.parametrize("beyond", [False, True], ids=["at-t", "one-ulp-beyond"])
    def test_far_corner_of_cell_at_t(self, beyond):
        # One cell holds all three controls; from (0, 0) the far corner of
        # its bounding box is the control (3, 4), at exactly t = 5 or, one
        # ulp of its y further, just beyond.
        y = np.nextafter(4.0, 5.0) if beyond else 4.0
        layout = layout_from_points([[(0.0, 0.0)], [(3.0, y)], [(2.5, 3.5)]])
        check_against_oracle(layout, 5.0, 1.0)
        assert detect_flags(layout, 5.0, 1.0)[0, 1] == (not beyond)

    def test_oracle_tests_distance_as_detection_does(self):
        # From (0, 0), (nextafter(3, 4), 4) has dx^2 + dy^2 =
        # 25.000000000000004 > 25, though math.dist rounds it to t = 5.
        x = np.nextafter(3.0, 4.0)
        assert math.dist((0.0, 0.0), (x, 4.0)) == 5.0
        layout = layout_from_points([[(0.0, 0.0)], [(x, 4.0)]])
        w = build_weight_matrix(layout, DetectionParams(t_abs=5.0, t_frac=None, k_min=1.0))
        assert (dense_flags(w) == oracle_flags(layout, 5.0, 1.0)).all()
        assert not len(w.a) and not len(w.b)

    def test_one_edge_batch_wraps_into_next_partner_row(self, monkeypatch):
        # Edge 0 alone fills its batch, and every control of it is near
        # edges 1 and 2, so its flat hit codes run on from row 1 into row 2
        # without a gap; each row is still its own run.
        monkeypatch.setattr(bundling, "PAIR_BUDGET", 1)
        edge = [(float(x), 0.0) for x in range(4)]
        layout = layout_from_points([edge, edge, [(x, 0.5) for x, _ in edge]])
        assert len(list(_detect(layout.points, layout.offsets, 1.0, 1.0))) == 3
        check_against_oracle(layout, 1.0, 1.0)
        assert runs_by_pair(layout, 1.0, 1.0)[(0, 1)] == (0, 3)

    def test_hit_map_cap_splits_batches(self, monkeypatch):
        # A hit map of M x 3 edges of 12 controls puts three edges in each
        # batch, far below the candidate budget.
        layout = make_crossing_bundles(3, 4, seed=0).layout
        assert (np.diff(layout.offsets) == 12).all()
        monkeypatch.setattr(bundling, "HIT_BUDGET", layout.m * 36)
        assert len(list(_detect(layout.points, layout.offsets, 2.0, 0.4))) == 4
        check_against_oracle(layout, 2.0, 0.4)


class TestWeightMatrix:
    def test_epsilon_zero_no_bundles_gives_zero_matrix(self):
        layout = layout_from_points([[(0, 0), (1, 0)], [(0, 99), (1, 99)]])
        w = build_weight_matrix(layout, DetectionParams(t_abs=1.0, t_frac=None))
        assert not dense_weights(w, 0.0).any()
        assert not dense_flags(w).any()

    def test_epsilon_one_weights_all_pairs(self):
        rng = np.random.default_rng(1)
        layout = random_layout(rng, m=6)
        w = build_weight_matrix(layout, DetectionParams())
        off = ~np.eye(6, dtype=bool)
        assert (dense_weights(w, 1.0)[off] == 1.0).all()
        assert (np.diag(dense_weights(w, 1.0)) == 0.0).all()

    def test_matrix_invariants(self):
        rng = np.random.default_rng(2)
        layout = random_layout(rng, m=12)
        eps = 0.001
        w = build_weight_matrix(layout, DetectionParams())
        off = ~np.eye(12, dtype=bool)
        assert set(np.unique(dense_weights(w, eps)[off])) <= {eps, 1.0}
        assert ((dense_weights(w, eps) == 1.0) == dense_flags(w)).all()
        assert not np.diag(dense_flags(w)).any()

    def test_holds_pairs_not_matrices(self):
        layout = make_ordered_bundles(64, 25, reverse_last=True, seed=0).layout
        build_weight_matrix(layout, DetectionParams())  # leaves out first-call allocations
        tracemalloc.start()
        try:
            w = build_weight_matrix(layout, DetectionParams())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert w.bundled_pair_count > 0
        assert held <= 32 * w.bundled_pair_count

    def test_pairs_are_the_only_per_pair_array(self):
        layout = make_crossing_bundles(4, 10, seed=0).layout
        w = build_weight_matrix(layout, DetectionParams())
        arrays = {f.name for f in fields(w) if isinstance(getattr(w, f.name), np.ndarray)}
        assert arrays == {"a", "b", "ways", "fans"}
        assert w.bundled_pair_count == layout.m * (layout.m - 1) > len(layout.points)
        assert w.fans.nbytes == len(layout.points)

    @pytest.mark.parametrize("flags", [
        np.zeros((5, 5), dtype=bool),
        np.eye(5, k=3, dtype=bool),
        ~np.eye(5, dtype=bool),
        np.random.default_rng(12).random((40, 40)) < 0.3,
    ], ids=["empty", "one-way pair", "all pairs", "30% random"])
    def test_merge_keeps_each_pair_once_with_its_ways(self, flags):
        flags = flags & ~np.eye(len(flags), dtype=bool)
        w = weight_matrix(flags)
        a, b = w.a, w.b
        assert a.dtype == b.dtype == np.int32
        assert not any(x.flags.writeable for x in (a, b, w.ways, w.fans))
        pairs = list(zip(a.tolist(), b.tolist()))
        assert pairs == sorted(set(pairs)) and (a < b).all()
        assert (w.ways == flags[a, b] + 2 * flags[b, a]).all()
        assert set(w.ways.tolist()) <= {1, 2, 3}
        assert len(pairs) == np.triu(flags | flags.T, 1).sum()
        assert w.bundled_pair_count == flags.sum()
        assert (dense_flags(w) == flags).all()
        want = [{"i": i, "j": j} for i, j in np.argwhere(flags).tolist()]
        assert json.loads(dump_bundled_pairs(w)) == want

    def test_fixture_flags_match_brute_force(self, ordered_fixture):
        w = build_weight_matrix(ordered_fixture.layout, DetectionParams())
        flags = oracle_flags(ordered_fixture.layout, ordered_fixture.t, 0.4)
        assert (dense_flags(w) == flags).all()

    def test_index_equals_brute_force_path(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            layout = random_layout(rng, m=int(rng.integers(2, 20)))
            params = DetectionParams(t_frac=rng.uniform(0.01, 0.2))
            a = build_weight_matrix(layout, params)
            b = oracle_flags(layout, params.resolve_t(layout), params.k_min)
            assert (dense_flags(a) == b).all()

    def test_monotone_in_t(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            layout = random_layout(rng, m=10)
            t = rng.uniform(2.0, 10.0)
            small = build_weight_matrix(layout, DetectionParams(t_abs=t, t_frac=None))
            big = build_weight_matrix(layout, DetectionParams(t_abs=2 * t, t_frac=None))
            assert (dense_flags(big) | ~dense_flags(small)).all()

    def test_antimonotone_in_k_min(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            layout = random_layout(rng, m=10)
            loose = build_weight_matrix(layout, DetectionParams(k_min=0.2))
            strict = build_weight_matrix(layout, DetectionParams(k_min=0.8))
            assert (dense_flags(loose) | ~dense_flags(strict)).all()

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        layout = random_layout(rng, m=15)
        params = DetectionParams(t_abs=4.0, t_frac=None)
        before = build_weight_matrix(layout, params)
        moved = rigid_transform(layout, angle=0.7, dx=13.0, dy=-42.0)
        after = build_weight_matrix(moved, params)
        assert (dense_flags(before) == dense_flags(after)).all()

    def test_self_similarity(self):
        layout = layout_from_points([[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]] * 2)
        assert detect_flags(layout, t=0.1, k_min=1.0).all(where=~np.eye(2, dtype=bool))

    @pytest.mark.parametrize("a, b, fans", [
        (np.zeros((1, 1), dtype=np.int32), np.ones((1, 1), dtype=np.int32), np.zeros(2, dtype=bool)),
        (np.zeros(1, dtype=np.int32), np.ones(1, dtype=np.int32), np.zeros((2, 1), dtype=bool)),
        (np.zeros(1, dtype=np.int32), np.ones(1, dtype=np.int32), np.zeros(2)),
        (np.zeros(1, dtype=np.int32), np.ones(2, dtype=np.int32), np.zeros(2, dtype=bool)),
    ], ids=["2-D pairs", "2-D fans", "float fans", "unequal lengths"])
    def test_refuses_arrays_of_another_kind(self, a, b, fans):
        message = "^a, b and ways must be 1-D of one length and fans a 1-D bool mark$"
        with pytest.raises(ValueError, match=message):
            BundleWeightMatrix(2, a, b, np.ones(len(a), dtype=np.uint8), fans)

    def test_dump_sorted(self):
        rng = np.random.default_rng(10)
        layout = random_layout(rng, m=12)
        w = build_weight_matrix(layout, DetectionParams(t_frac=0.2))
        pairs = [(p["i"], p["j"]) for p in json.loads(dump_bundled_pairs(w))]
        assert pairs == sorted(pairs)
        assert len(pairs) == w.bundled_pair_count


class TestDetectionParams:
    def test_both_thresholds_rejected(self):
        with pytest.raises(ValueError, match="^exactly one of t_abs / t_frac must be set$"):
            DetectionParams(t_abs=1.0, t_frac=0.03)

    def test_neither_threshold_rejected(self):
        with pytest.raises(ValueError, match="^exactly one of t_abs / t_frac must be set$"):
            DetectionParams(t_abs=None, t_frac=None)

    def test_k_min_range(self):
        with pytest.raises(ValueError, match=r"^k_min must be in \(0, 1\], got 0.0$"):
            DetectionParams(k_min=0.0)

    @pytest.mark.parametrize("t_abs, t_frac, message", [
        (0.0, None, r"^t_abs must be > 0, got 0.0$"),
        (-1.0, None, r"^t_abs must be > 0, got -1.0$"),
        (math.nan, None, r"^t_abs must be > 0, got nan$"),
        (None, 0.0, r"^t_frac must be in \(0, 1\], got 0.0$"),
        (None, 1.5, r"^t_frac must be in \(0, 1\], got 1.5$"),
        (None, math.nan, r"^t_frac must be in \(0, 1\], got nan$"),
    ])
    def test_threshold_range(self, t_abs, t_frac, message):
        with pytest.raises(ValueError, match=message):
            DetectionParams(t_abs=t_abs, t_frac=t_frac)

    def test_zero_extent_needs_absolute_t(self):
        layout = layout_from_points([[(1, 1)]])
        with pytest.raises(ValueError, match="absolute"):
            DetectionParams().resolve_t(layout)


@st.composite
def lattice_layouts(draw):
    """Controls on an integer lattice (exact arithmetic) with negative
    coordinates, coincident points, single-control edges, points exactly
    t apart and on cell boundaries, and t up to well past the extent."""
    unit = draw(st.sampled_from([0.25, 1.0, 8.0]))
    coord = st.integers(-6, 6).map(lambda v: v * unit)
    controls = draw(
        st.lists(st.lists(st.tuples(coord, coord), min_size=1, max_size=8), min_size=1, max_size=7)
    )
    t = unit * draw(st.integers(1, 30))
    k_min = draw(st.floats(0.05, 1.0))
    return layout_from_points(controls), t, k_min


@st.composite
def wide_layouts(draw):
    """t = 1e-9 on a layout about 1e6 wide: controls sit in clusters a
    few t across around three far-apart centres (exact offsets)."""
    centre = st.sampled_from([-5e5, 3e5, 5e5])
    offset = st.integers(-40, 40).map(lambda v: v * 2.0**-34)
    point = st.tuples(centre, offset, centre, offset).map(lambda c: (c[0] + c[1], c[2] + c[3]))
    controls = draw(
        st.lists(st.lists(point, min_size=1, max_size=6), min_size=1, max_size=6)
    )
    return layout_from_points(controls), 1e-9, draw(st.floats(0.05, 1.0))


def check_against_oracle(layout, t, k_min):
    w = build_weight_matrix(layout, DetectionParams(t_abs=t, t_frac=None, k_min=k_min))
    assert (dense_flags(w) == oracle_flags(layout, t, k_min)).all()
    runs = runs_by_pair(layout, t, k_min)
    assert list(runs) == [(p["i"], p["j"]) for p in json.loads(dump_bundled_pairs(w))]
    controls = [c for _, _, c in edges_of(layout)]
    for (i, j), run in runs.items():
        k_ij = required_run_length(len(controls[i]), len(controls[j]), k_min)
        assert run == oracle_first_run(controls[i], controls[j], t, k_ij)


class TestDetectionProperties:
    @settings(max_examples=150, deadline=None)
    @given(lattice_layouts())
    def test_lattice_layouts_match_oracle(self, case):
        check_against_oracle(*case)

    @settings(max_examples=50, deadline=None)
    @given(wide_layouts())
    def test_tiny_t_on_wide_layout_matches_oracle(self, case):
        check_against_oracle(*case)

    def test_rounding_at_cell_edge_matches_oracle(self):
        # x - origin = 1 - 2**-53 and 2.0 are cells 0 and 2 for a cell of
        # exactly t = 1, yet the rounded distance passes the exact test.
        layout = layout_from_points([[(0.0, 5.0)], [(1 - 2.0**-53, 0.0)], [(2.0, 0.0)]])
        check_against_oracle(layout, 1.0, 1.0)
        w = build_weight_matrix(layout, DetectionParams(t_abs=1.0, t_frac=None))
        assert dense_flags(w)[1, 2] and dense_flags(w)[2, 1]

    @settings(max_examples=50, deadline=None)
    @given(lattice_layouts(), st.randoms(use_true_random=False))
    def test_permuting_edge_ids_permutes_flags_and_runs(self, case, rnd):
        layout, t, k_min = case
        perm = list(range(layout.m))
        rnd.shuffle(perm)
        edges = edges_of(layout)
        permuted = make_layout(edges[p] for p in perm)
        params = DetectionParams(t_abs=t, t_frac=None, k_min=k_min)
        a = build_weight_matrix(layout, params)
        b = build_weight_matrix(permuted, params)
        perm = np.array(perm)
        assert (dense_flags(b) == dense_flags(a)[np.ix_(perm, perm)]).all()
        runs_a = runs_by_pair(layout, t, k_min)
        for (i, j), r in runs_by_pair(permuted, t, k_min).items():
            assert r == runs_a[(perm[i], perm[j])]

    @settings(max_examples=100, deadline=None)
    @given(lattice_layouts())
    def test_fans_mark_the_fan_segments_of_oracle_runs(self, case):
        layout, t, k_min = case
        w = build_weight_matrix(layout, DetectionParams(t_abs=t, t_frac=None, k_min=k_min))
        controls = [c for _, _, c in edges_of(layout)]
        want = np.zeros(len(layout.points), dtype=bool)
        for i, j in zip(*np.nonzero(oracle_flags(layout, t, k_min))):
            k_ij = oracle_run_length(len(controls[i]), len(controls[j]), k_min)
            start, end = oracle_first_run(controls[i], controls[j], t, k_ij)
            for seg in oracle_fans(start, end, len(controls[i])):
                if seg is not None:
                    want[layout.offsets[i] + seg] = True
        assert (w.fans == want).all()

    @settings(max_examples=50, deadline=None)
    @given(lattice_layouts(), st.randoms(use_true_random=False))
    def test_permuting_edge_ids_permutes_fans(self, case, rnd):
        layout, t, k_min = case
        perm = list(range(layout.m))
        rnd.shuffle(perm)
        permuted = make_layout(edges_of(layout)[p] for p in perm)
        params = DetectionParams(t_abs=t, t_frac=None, k_min=k_min)
        a = build_weight_matrix(layout, params)
        b = build_weight_matrix(permuted, params)
        for i, p in enumerate(perm):
            assert (b.fans[permuted.offsets[i] : permuted.offsets[i + 1]]
                    == a.fans[layout.offsets[p] : layout.offsets[p + 1]]).all()


SVG = "{http://www.w3.org/2000/svg}"


def path_points(path):
    """The (x, y) points of an SVG path "M x y L x y ..."."""
    nums = [float(v) for v in path.get("d").replace("M", "").replace("L", "").split()]
    return list(zip(nums[::2], nums[1::2]))


class TestFansOnlySvg:
    @settings(max_examples=100, deadline=None)
    @given(lattice_layouts())
    def test_colored_segments_are_the_oracle_fans(self, case):
        # Lattice coordinates are exact in the SVG's three decimals.
        layout, t, k_min = case
        w = build_weight_matrix(layout, DetectionParams(t_abs=t, t_frac=None, k_min=k_min))
        rgb = [(i / layout.m, 0.5, 1 - i / layout.m) for i in range(layout.m)]
        elements = list(ET.fromstring(render_svg(layout, rgb, w.fans)))
        assert [e.tag for e in elements[: layout.m]] == [SVG + "path"] * layout.m
        rest = elements[layout.m :]
        flags = oracle_flags(layout, t, k_min)
        edges = edges_of(layout)
        for i, (v1, v2, ci) in enumerate(edges):
            segs = set()
            for j in np.flatnonzero(flags[i]):
                cj = edges[j][2]
                run = oracle_first_run(ci, cj, t, oracle_run_length(len(ci), len(cj), k_min))
                segs.update(s for s in oracle_fans(*run, len(ci)) if s is not None)
            n = next(k for k, e in enumerate(rest) if e.tag == SVG + "circle")
            paths, circles, rest = rest[:n], rest[n : n + 2], rest[n + 2 :]
            assert [path_points(e) for e in paths] == [
                [tuple(ci[p]), tuple(ci[p + 1])] for p in sorted(segs)
            ]
            assert [e.tag for e in circles] == [SVG + "circle"] * 2
            assert [(float(c.get("cx")), float(c.get("cy"))) for c in circles] == [
                tuple(v1), tuple(v2)
            ]
            color = circles[0].get("fill")
            assert [e.get("stroke") for e in paths] + [circles[1].get("fill")] == [color] * (n + 1)
            got = [int(color[k : k + 2], 16) / 255 for k in (1, 3, 5)]
            assert max(abs(a - b) for a, b in zip(got, rgb[i])) <= 1 / 255
        assert rest == []

"""Command-line entry point: generate fixtures, color layouts, render SVG."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import fixtures
from .baseline import baseline_colors
from .bundling import DetectionParams, ParameterError, build_weight_matrix, dump_bundled_pairs
from .coloring import ColorTable, OptimizationError, OptimizerConfig, colors_to_display
from .model import LayoutError, load_layout, save_layout
from .pipeline import StageError, read_color_dump, run_peacock, write_color_dump
from .render import RenderOptions, render_svg

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _ranged_float(name, lo, hi, lo_open=False):
    def parse(text):
        try:
            v = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        above = v > lo if lo_open else v >= lo
        if not (above and v <= hi):
            bracket = "(" if lo_open else "["
            raise argparse.ArgumentTypeError(
                f"{name} must be in {bracket}{lo}, {hi}], got {text}"
            )
        return v

    return parse


def _positive_float(name):
    def parse(text):
        try:
            v = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        if not v > 0:
            raise argparse.ArgumentTypeError(f"{name} must be > 0, got {text}")
        return v

    return parse


def _positive_int(name):
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if v < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {text}")
        return v

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peacock",
        description="Distinguishable edge coloring for edge-bundled graph layouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic bundled layout")
    gen.add_argument("--style", choices=["ordered", "crossing"], default="ordered")
    gen.add_argument("--groups", type=_positive_int("--groups"), default=6)
    gen.add_argument("--edges", type=_positive_int("--edges"), default=6)
    gen.add_argument("--bundles", type=_positive_int("--bundles"), default=3,
                     help="bundle count for --style crossing")
    gen.add_argument("--reverse-last", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    color = sub.add_parser("color", help="color a bundled layout")
    color.add_argument("--input", required=True)
    color.add_argument("--epsilon", type=_ranged_float("--epsilon", 0.0, 1.0), default=0.001)
    group_t = color.add_mutually_exclusive_group()
    group_t.add_argument("--t-frac", type=_ranged_float("--t-frac", 0.0, 1.0, lo_open=True),
                         default=None)
    group_t.add_argument("--t-abs", type=_positive_float("--t-abs"), default=None)
    color.add_argument("--kmin", type=_ranged_float("--kmin", 0.0, 1.0, lo_open=True),
                       default=0.4)
    color.add_argument("--dims", type=int, choices=[1, 2, 3], default=1)
    color.add_argument("--seed", type=int, default=0)
    color.add_argument("--max-iters", type=_positive_int("--max-iters"), default=500)
    color.add_argument("--rel-tol", type=_positive_float("--rel-tol"), default=1e-6)
    color.add_argument("--method", choices=["peacock", "baseline"], default="peacock")
    color.add_argument("--init", choices=["endpoint-projection", "seeded-random"],
                       default="endpoint-projection")
    color.add_argument("--out-colors")
    color.add_argument("--out-svg")
    color.add_argument("--fans-only", action="store_true")
    color.add_argument("--dump-bundles")

    render = sub.add_parser("render", help="render a layout with precomputed colors")
    render.add_argument("--input", required=True)
    render.add_argument("--colors", required=True)
    render.add_argument("--out", required=True)

    return parser


def _cmd_gen(args) -> int:
    if args.style == "ordered":
        fx = fixtures.make_ordered_bundles(
            args.groups, args.edges, reverse_last=args.reverse_last, seed=args.seed
        )
    else:
        fx = fixtures.make_crossing_bundles(args.bundles, args.edges, seed=args.seed)
    out = Path(args.out)
    save_layout(fx.layout, out)
    truth = out.with_suffix(out.suffix + ".truth.json") if out.suffix != ".json" \
        else out.with_name(out.stem + ".truth.json")
    with open(truth, "w") as fh:
        json.dump(fx.ground_truth_dict(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {out} ({fx.layout.m} edges) and {truth}")
    return EXIT_OK


def _cmd_color(args) -> int:
    layout = load_layout(args.input)
    t_frac = args.t_frac
    if t_frac is None and args.t_abs is None:
        t_frac = 0.03
    params = DetectionParams(
        t_abs=args.t_abs, t_frac=t_frac, k_min=args.kmin, epsilon=args.epsilon
    )

    if args.method == "baseline":
        base = baseline_colors(layout)
        table = ColorTable(m=base.m, q=3, col=base.col.copy())
        diag = None
        weights = None
    else:
        cfg = OptimizerConfig(
            q=args.dims, max_iters=args.max_iters, rel_tol=args.rel_tol,
            seed=args.seed, init=args.init,
        )
        table, diag = run_peacock(layout, params, cfg)
        weights = diag.weight_matrix

    if args.dump_bundles:
        if weights is None:
            weights = build_weight_matrix(layout, params)
        with open(args.dump_bundles, "w") as fh:
            json.dump(dump_bundled_pairs(weights), fh, indent=1)
            fh.write("\n")

    if args.out_colors:
        write_color_dump(args.out_colors, table, diag)

    if args.out_svg:
        if args.fans_only and weights is None:
            weights = build_weight_matrix(layout, params)
        opts = RenderOptions(fans_only=args.fans_only, weights=weights)
        with open(args.out_svg, "w") as fh:
            fh.write(render_svg(layout, colors_to_display(table), opts))

    if diag is not None:
        print(
            f"colored {layout.m} edges: {diag.bundled_pairs} bundled pairs, "
            f"stress {diag.stress:.6g} after {diag.iterations} iterations ({diag.stop_reason})"
        )
    else:
        print(f"colored {layout.m} edges with the baseline encoding")
    return EXIT_OK


def _cmd_render(args) -> int:
    layout = load_layout(args.input)
    doc = read_color_dump(args.colors)
    rgb = np.asarray(doc["rgb"], dtype=float)
    with open(args.out, "w") as fh:
        fh.write(render_svg(layout, rgb))
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    handlers = {"gen": _cmd_gen, "color": _cmd_color, "render": _cmd_render}
    try:
        return handlers[args.command](args)
    except StageError as exc:
        print(f"peacock: error {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (LayoutError, ParameterError, OptimizationError, OSError, ValueError) as exc:
        print(f"peacock: error [{args.command}] {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line entry point: generate fixtures, color layouts, render SVG."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fixtures
from .baseline import baseline_colors
from .bundling import DetectionParams, build_weight_matrix, dump_bundled_pairs
from .coloring import OptimizerConfig, colors_to_display
from .model import load_layout, save_layout, write_json
from .pipeline import StageError, read_rgb, run_peacock, timed, write_color_dump
from .render import render_svg

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _number(name, kind, ok, rule):
    """argparse type: `kind(text)`, refused with "<name> must be <rule>"
    unless `ok` holds for it."""
    noun = "an integer" if kind is int else "a number"

    def parse(text):
        try:
            v = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be {noun}, got {text!r}")
        if not ok(v):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text}")
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
    gen.add_argument("--groups", default=6, type=_number(
        "--groups", int, lambda v: v >= 2 and v % 2 == 0, "even and >= 2"))
    gen.add_argument("--edges", default=6, type=_number("--edges", int, lambda v: v >= 2, ">= 2"))
    gen.add_argument("--bundles", default=3, help="bundle count for --style crossing",
                     type=_number("--bundles", int, lambda v: v >= 2, ">= 2"))
    gen.add_argument("--reverse-last", action="store_true")
    gen.add_argument("--seed", type=_number("--seed", int, lambda v: v >= 0, ">= 0"), default=0)
    gen.add_argument("--out", required=True)

    # Detection and optimizer flags default to the fields of the config they set.
    color = sub.add_parser("color", help="color a bundled layout")
    color.add_argument("--input", required=True)
    color.add_argument("--epsilon", default=OptimizerConfig.epsilon,
                       type=_number("--epsilon", float, lambda v: 0 <= v <= 1, "in [0.0, 1.0]"))
    group_t = color.add_mutually_exclusive_group()
    group_t.add_argument("--t-frac", default=DetectionParams.t_frac,
                         type=_number("--t-frac", float, lambda v: 0 < v <= 1, "in (0.0, 1.0]"))
    group_t.add_argument("--t-abs", default=DetectionParams.t_abs,
                         type=_number("--t-abs", float, lambda v: v > 0, "> 0"))
    color.add_argument("--kmin", default=DetectionParams.k_min,
                       type=_number("--kmin", float, lambda v: 0 < v <= 1, "in (0.0, 1.0]"))
    color.add_argument("--dims", type=int, choices=[1, 2, 3], default=OptimizerConfig.q)
    color.add_argument("--max-iters", default=OptimizerConfig.max_iters,
                       type=_number("--max-iters", int, lambda v: v >= 1, ">= 1"))
    color.add_argument("--rel-tol", default=OptimizerConfig.rel_tol,
                       type=_number("--rel-tol", float, lambda v: v > 0, "> 0"))
    color.add_argument("--method", choices=["peacock", "baseline"], default="peacock")
    color.add_argument("--out-colors")
    color.add_argument("--out-svg")
    color.add_argument("--fans-only", action="store_true")
    color.add_argument("--dump-bundles")
    color.set_defaults(usage_error=color.error)  # for checks that span flags

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
    write_json(truth, fx.ground_truth_dict())
    print(f"wrote {out} ({fx.layout.m} edges) and {truth}")
    return EXIT_OK


def _cmd_color(args) -> int:
    layout = load_layout(args.input)
    params = DetectionParams(t_abs=args.t_abs, k_min=args.kmin,
                             t_frac=None if args.t_abs is not None else args.t_frac)

    if args.method == "baseline":
        table, result = baseline_colors(layout), None
        weights = (timed({}, "bundling", lambda: build_weight_matrix(layout, params))
                   if args.dump_bundles or args.fans_only else None)
    else:
        cfg = OptimizerConfig(q=args.dims, max_iters=args.max_iters, rel_tol=args.rel_tol,
                              epsilon=args.epsilon)
        run = run_peacock(layout, params, cfg)
        table, result, weights = run.table, run.result, run.weights

    if args.dump_bundles:
        Path(args.dump_bundles).write_text(dump_bundled_pairs(weights))

    if args.out_colors:
        write_color_dump(args.out_colors, table, result)

    if args.out_svg:
        fans = weights.fans if args.fans_only else None
        with open(args.out_svg, "w") as fh:
            fh.write(render_svg(layout, colors_to_display(table), fans))

    if result is not None:
        print(
            f"colored {layout.m} edges: {weights.bundled_pair_count} bundled pairs, "
            f"stress {result.stress:.6g} after {result.n_iters} iterations ({result.stop_reason})"
        )
    else:
        print(f"colored {layout.m} edges with the baseline encoding")
    return EXIT_OK


def _cmd_render(args) -> int:
    layout = load_layout(args.input)
    rgb = read_rgb(args.colors)
    with open(args.out, "w") as fh:
        fh.write(render_svg(layout, rgb))
    print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "color" and args.fans_only and not args.out_svg:
            args.usage_error("--fans-only only shapes the SVG; it needs --out-svg")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    handlers = {"gen": _cmd_gen, "color": _cmd_color, "render": _cmd_render}
    try:
        return handlers[args.command](args)
    except StageError as exc:
        print(f"peacock: error {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"peacock: error [{args.command}] {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

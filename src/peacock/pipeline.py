"""End-to-end run: detect bundles, build dissimilarities, optimize, normalize.

`run_peacock` returns what the stages produced, and each one's wall time,
as a `Run`; a failure carries the name of the stage it came from.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .bundling import BundleWeightMatrix, DetectionParams, build_weight_matrix
from .coloring import OptimizeResult, OptimizerConfig, colors_to_display, normalize_colors, optimize
from .dissimilarity import build_dissimilarity_matrix
from .model import GraphLayout


class StageError(Exception):
    """A pipeline stage failed; `stage` names the culprit."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class Run:
    """The stages' outputs, by reference, and their wall times in seconds;
    `table` holds the normalized colors as a read-only (M, q) array."""

    weights: BundleWeightMatrix
    result: OptimizeResult
    table: np.ndarray
    stage_seconds: dict


def _timed(stage_seconds: dict, stage: str, fn):
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:
        raise StageError(stage, exc) from exc
    stage_seconds[stage] = time.perf_counter() - start
    return result


def run_peacock(layout: GraphLayout, params: DetectionParams, cfg: OptimizerConfig) -> Run:
    seconds: dict = {}
    w = _timed(seconds, "bundling", lambda: build_weight_matrix(layout, params))
    d = _timed(seconds, "dissimilarity", lambda: build_dissimilarity_matrix(layout))
    result = _timed(seconds, "optimize", lambda: optimize(w, d, cfg, layout))
    table = _timed(seconds, "normalize", lambda: normalize_colors(result.embedding, w))
    return Run(w, result, table, seconds)


def write_color_dump(path, table: np.ndarray, result: OptimizeResult | None = None) -> None:
    """Write the colors `table` (M, q), their display colors and `result`'s
    stress and iterations."""
    rgb = colors_to_display(table)
    doc = {
        "q": table.shape[1],
        "colors": [[float(v) for v in row] for row in table],
        "rgb": [[float(v) for v in row] for row in rgb],
        "stress": result.stress if result is not None else None,
        "iters": result.n_iters if result is not None else 0,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_rgb(path) -> np.ndarray:
    """The 'rgb' rows of the color dump at `path`, which must all be finite numbers."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a color dump (not a JSON object)")
    if "rgb" not in doc:
        raise ValueError(f"{path}: not a color dump (missing 'rgb')")
    try:
        rgb = np.asarray(doc["rgb"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        rgb = None
    if rgb is None or not np.isfinite(rgb).all():
        raise ValueError(f"{path}: 'rgb' holds a value that is not a finite number")
    return rgb

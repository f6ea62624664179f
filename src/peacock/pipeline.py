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
from .coloring import (OptimizeResult, OptimizerConfig, colors_to_display, initial_embedding,
                       normalize_colors, optimize)
from .dissimilarity import build_dissimilarity_matrix
from .model import GraphLayout, read_json


class StageError(Exception):
    """A pipeline stage failed; `stage` names the culprit."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@dataclass(frozen=True)
class Run:
    """The stages' outputs, by reference, and their wall times in seconds;
    `table` holds the normalized colors as a read-only (M, q) array."""

    weights: BundleWeightMatrix
    result: OptimizeResult
    table: np.ndarray
    stage_seconds: dict


def timed(stage_seconds: dict, stage: str, fn):
    """fn(), its wall time recorded in `stage_seconds` under `stage`; a
    failure is raised again as a StageError naming the stage."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:
        raise StageError(stage, exc) from exc
    stage_seconds[stage] = time.perf_counter() - start
    return result


def run_peacock(layout: GraphLayout, params: DetectionParams, cfg: OptimizerConfig) -> Run:
    seconds: dict = {}
    w = timed(seconds, "bundling", lambda: build_weight_matrix(layout, params))
    d = timed(seconds, "dissimilarity", lambda: build_dissimilarity_matrix(layout))
    result = timed(seconds, "optimize",
                   lambda: optimize(w, d, initial_embedding(layout, cfg), cfg))
    table = timed(seconds, "normalize", lambda: normalize_colors(result.embedding, w))
    return Run(w, result, table, seconds)


def write_color_dump(path, table: np.ndarray, result: OptimizeResult | None = None) -> None:
    """Write the colors `table` (M, q), their display colors and `result`'s
    stress and iterations, byte for byte as `model.write_json` would,
    without json's pure-Python encoder."""
    stress, iters = (json.dumps(result.stress), result.n_iters) if result else ("null", 0)
    colors, rgb = (",\n".join("  [\n   " + ",\n   ".join(map(float.__repr__, row)) + "\n  ]"
                               for row in t.tolist()) for t in (table, colors_to_display(table)))
    with open(path, "w") as fh:
        fh.write(f'{{\n "q": {table.shape[1]},\n "colors": [\n{colors}\n ],\n'
                 f' "rgb": [\n{rgb}\n ],\n "stress": {stress},\n "iters": {iters}\n}}\n')


def read_rgb(path) -> np.ndarray:
    """The 'rgb' rows of the color dump at `path`, which must all be finite numbers."""
    doc = read_json(path)
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

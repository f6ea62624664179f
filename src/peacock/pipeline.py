"""End-to-end run: detect bundles, build dissimilarities, optimize, normalize.

Each invocation is stateless; stages run sequentially and report their
wall time. Failures carry the name of the stage they came from.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .bundling import BundleWeightMatrix, DetectionParams, build_weight_matrix
from .coloring import (
    ColorTable,
    OptimizerConfig,
    colors_to_display,
    normalize_colors,
    optimize,
)
from .dissimilarity import build_dissimilarity_matrix
from .model import GraphLayout


class StageError(Exception):
    """A pipeline stage failed; `stage` names the culprit."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class Diagnostics:
    stress: float = 0.0
    iterations: int = 0
    stop_reason: str = ""
    bundled_pairs: int = 0
    stage_seconds: dict = field(default_factory=dict)
    # Kept for downstream consumers (fans-only rendering); not serialized.
    weight_matrix: BundleWeightMatrix | None = field(default=None, repr=False)
    resolved_t: float | None = None


def _timed(diag: Diagnostics, stage: str, fn):
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:
        raise StageError(stage, exc) from exc
    diag.stage_seconds[stage] = time.perf_counter() - start
    return result


def run_peacock(
    layout: GraphLayout, params: DetectionParams, cfg: OptimizerConfig
) -> tuple[ColorTable, Diagnostics]:
    diag = Diagnostics()
    w = _timed(diag, "bundling", lambda: build_weight_matrix(layout, params))
    diag.bundled_pairs = w.bundled_pair_count
    diag.weight_matrix = w
    diag.resolved_t = params.resolve_t(layout)
    d = _timed(diag, "dissimilarity", lambda: build_dissimilarity_matrix(layout))
    result = _timed(diag, "optimize", lambda: optimize(w, d, cfg, layout))
    diag.stress = result.stress
    diag.iterations = result.n_iters
    diag.stop_reason = result.stop_reason
    table = _timed(diag, "normalize", lambda: normalize_colors(result.embedding, w))
    return table, diag


def color_dump_dict(table: ColorTable, rgb: np.ndarray, diag: Diagnostics | None) -> dict:
    return {
        "q": table.q,
        "colors": [[float(v) for v in row] for row in table.col],
        "rgb": [[float(v) for v in row] for row in rgb],
        "stress": diag.stress if diag is not None else None,
        "iters": diag.iterations if diag is not None else 0,
    }


def write_color_dump(path, table: ColorTable, diag: Diagnostics | None = None) -> None:
    rgb = colors_to_display(table)
    with open(path, "w") as fh:
        json.dump(color_dump_dict(table, rgb, diag), fh, indent=1)
        fh.write("\n")


def read_color_dump(path) -> dict:
    """The color dump at `path`: a JSON object with an 'rgb' member."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a color dump (not a JSON object)")
    if "rgb" not in doc:
        raise ValueError(f"{path}: not a color dump (missing 'rgb')")
    return doc

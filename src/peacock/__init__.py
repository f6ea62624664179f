"""Distinguishable edge coloring for edge-bundled graph layouts."""

from .baseline import BaselineColorTable, baseline_colors
from .bundling import (
    BundleWeightMatrix,
    DetectionParams,
    build_weight_matrix,
    detect_pair,
    required_run_length,
)
from .coloring import (
    ColorEmbedding,
    ColorTable,
    OptimizerConfig,
    colors_to_display,
    normalize_colors,
    optimize,
    smacof_step,
    stress,
)
from .dissimilarity import (
    DissimilarityMatrix,
    build_dissimilarity_matrix,
    endpoint_dissimilarity,
)
from .model import (
    EdgeCurve,
    GraphLayout,
    LayoutError,
    Point2,
    layout_extent,
    load_layout,
    save_layout,
)
from .pipeline import Diagnostics, run_peacock
from .render import FanSegments, RenderOptions, find_fan_segments, render_svg

__version__ = "0.1.0"

__all__ = [
    "BaselineColorTable",
    "BundleWeightMatrix",
    "ColorEmbedding",
    "ColorTable",
    "Diagnostics",
    "DetectionParams",
    "DissimilarityMatrix",
    "EdgeCurve",
    "FanSegments",
    "GraphLayout",
    "LayoutError",
    "OptimizerConfig",
    "Point2",
    "RenderOptions",
    "baseline_colors",
    "build_dissimilarity_matrix",
    "build_weight_matrix",
    "colors_to_display",
    "detect_pair",
    "endpoint_dissimilarity",
    "find_fan_segments",
    "layout_extent",
    "load_layout",
    "normalize_colors",
    "optimize",
    "render_svg",
    "required_run_length",
    "run_peacock",
    "save_layout",
    "smacof_step",
    "stress",
]

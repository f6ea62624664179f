"""Distinguishable edge coloring for edge-bundled graph layouts."""

from .bundling import DetectionParams
from .coloring import OptimizerConfig
from .model import load_layout
from .pipeline import run_peacock

__version__ = "0.1.0"

__all__ = ["DetectionParams", "OptimizerConfig", "load_layout", "run_peacock"]

"""Output checks and quality measures for one `peacock color` run.

Every check returns a list of problems; an empty list means the run
passed. A problem makes the run count as failed, it never aborts the
benchmark.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

_SVG = "{http://www.w3.org/2000/svg}"
_PAIRS = re.compile(r"colored (\d+) edges: (\d+) bundled pairs")


def _unit_values(rows, m: int, width: int, what: str) -> list[str]:
    if not isinstance(rows, list) or len(rows) != m:
        return [f"{what}: expected {m} rows"]
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            return [f"{what}[{i}]: expected {width} values"]
        for v in row:
            if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
                return [f"{what}[{i}]: value {v!r} is not a finite number in [0, 1]"]
    return []


def check_color_dump(doc, m: int, q: int, max_iters: int) -> list[str]:
    """M finite rows of q values in [0, 1], M RGB triples, 1 <= iters <= max_iters."""
    if not isinstance(doc, dict):
        return ["color dump is not a JSON object"]
    problems = _unit_values(doc.get("colors"), m, q, "colors")
    problems += _unit_values(doc.get("rgb"), m, 3, "rgb")
    stress = doc.get("stress")
    if not (isinstance(stress, (int, float)) and math.isfinite(stress)):
        problems.append(f"stress {stress!r} is not a finite number")
    iters = doc.get("iters")
    if not (isinstance(iters, int) and 1 <= iters <= max_iters):
        problems.append(f"iters {iters!r} not in [1, {max_iters}]")
    return problems


def check_pair_count(reported: int | None, expected: int) -> list[str]:
    if reported != expected:
        return [f"bundled pairs {reported} != ground truth {expected}"]
    return []


def reported_pairs(stdout: str) -> int | None:
    """The bundled-pair count from `peacock color`'s summary line."""
    match = _PAIRS.search(stdout)
    return int(match.group(2)) if match else None


def _is_gray(stroke: str | None) -> bool:
    return stroke is not None and len(stroke) == 7 and stroke[1:3] == stroke[3:5] == stroke[5:7]


def check_svg(path, m: int, fans_only: bool) -> list[str]:
    """Well-formed XML with M paths, or M gray paths plus 2M endpoint circles."""
    try:
        root = ET.parse(path).getroot()
    except (ET.ParseError, OSError) as exc:
        return [f"svg does not parse: {exc}"]
    paths = list(root.iter(_SVG + "path"))
    if not fans_only:
        return [] if len(paths) == m else [f"svg has {len(paths)} paths, expected {m}"]
    gray = sum(_is_gray(p.get("stroke")) for p in paths)
    circles = len(list(root.iter(_SVG + "circle")))
    problems = []
    if gray != m:
        problems.append(f"fans-only svg has {gray} gray paths, expected {m}")
    if circles != 2 * m:
        problems.append(f"fans-only svg has {circles} endpoint circles, expected {2 * m}")
    return problems


def read_json(path):
    """The parsed file, or None if it is missing or not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _ranks(values: np.ndarray) -> np.ndarray:
    """Ranks from 1, ties sharing their average rank (as Spearman's rho needs)."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(a, b) -> float:
    """Spearman's rank correlation; 0 when either side is constant."""
    ra, rb = _ranks(np.asarray(a, dtype=float)), _ranks(np.asarray(b, dtype=float))
    if ra.std() == 0 or rb.std() == 0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def bundle_order_frac(colors, bundles, order, threshold: float = 0.9) -> float:
    """Share of ground-truth bundles whose colors follow the connection order.

    A bundle counts when some color channel has |Spearman rho| >= threshold
    against the order of its edges. For q = 1 there is one channel and this
    is acceptance criterion 6 applied to every bundle.
    """
    col = np.asarray(colors, dtype=float)
    ordered = 0
    for ids, ranks in zip(bundles, order):
        best = max(abs(spearman(col[ids, k], ranks)) for k in range(col.shape[1]))
        ordered += best >= threshold
    return ordered / len(bundles)

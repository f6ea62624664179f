"""One traced `peacock color` call, started by perfbench/run.py.

    python3 perfbench/traced.py SPANS WORKLOAD TRACE_ID color --input ... [CLI arguments]

Runs the real CLI in this process (`peacock.cli.main` on the given
arguments) with each module's public functions on its path wrapped in a
span recorder, so there is no second copy of the pipeline to keep in
step with the CLI. Each call becomes one span: name (module.function),
start, end, parent, trace and workload ids, the ru_maxrss high-water
mark after the call, the minor page faults taken during it, and the
counts the call produced. The span `peacock.color` covers the whole CLI
call. After it, `optimize` is called once more with `max_iters=1` on the
arguments the CLI gave it: timed after the full solve, it does not
absorb first-call BLAS warm-up. The spans are written as JSON to SPANS
when the run ends; the exit code is the CLI's.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import resource
import sys
import time
from contextlib import ExitStack, contextmanager
from unittest import mock

# Functions wrapped, under the module namespace the CLI's code looks them up in.
WRAPPED = {
    "peacock.cli": ("load_layout", "write_color_dump", "colors_to_display", "render_svg"),
    "peacock.pipeline": ("build_weight_matrix", "build_dissimilarity_matrix", "optimize",
                         "normalize_colors"),
}

# Counts recorded on a span, from the call's return value.
COUNTS = {
    "model.load_layout": lambda layout: {"edges": layout.m},
    "bundling.build_weight_matrix": lambda w: {"bundled_pairs": w.bundled_pair_count},
    "coloring.optimize": lambda r: {"iterations": r.n_iters, "converged": r.converged},
    "render.render_svg": lambda svg: {"svg_bytes": len(svg.encode())},
}


class Tracer:
    """Keeps spans in memory; `dump` writes them out."""

    def __init__(self, workload: str, trace: str):
        self.workload = workload
        self.trace = trace
        self.spans: list[dict] = []
        self.open: list[dict] = []
        self.calls: dict[str, tuple] = {}  # span name -> arguments of its last call

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": f"{self.trace}.{len(self.spans)}",
            "name": name,
            "parent": self.open[-1]["id"] if self.open else None,
            "trace": self.trace,
            "workload": self.workload,
        }
        self.spans.append(rec)
        self.open.append(rec)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            usage = resource.getrusage(resource.RUSAGE_SELF)
            rec["minflt"] = usage.ru_minflt - faults
            rec["rss_hwm_mb"] = usage.ru_maxrss / 1024
            self.open.pop()

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] = (args, kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec.update(COUNTS.get(name, lambda _: {})(result))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def run(argv: list[str], tracer: Tracer) -> int:
    from peacock import cli, coloring

    with ExitStack() as stack:
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for name in names:
                stack.enter_context(mock.patch.object(module, name, tracer.wrap(getattr(module, name))))
        with tracer.span("peacock.color"):
            code = cli.main(argv)
    if "coloring.optimize" in tracer.calls:
        args, kwargs = tracer.calls["coloring.optimize"]
        bound = inspect.signature(coloring.optimize).bind(*args, **kwargs)
        bound.arguments["cfg"] = dataclasses.replace(bound.arguments["cfg"], max_iters=1)
        with tracer.span("coloring.optimize"):
            coloring.optimize(*bound.args, **bound.kwargs)
    return code


def main(argv: list[str]) -> int:
    spans, workload, trace, *cli_argv = argv
    tracer = Tracer(workload, trace)
    try:
        return run(cli_argv, tracer)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Closed-loop benchmark of `peacock color`.

Run from the repository root:

    python3 perfbench/run.py --workload ordered-1d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One client launches one `peacock color` subprocess at a time and starts
the next only after the previous one has exited and its outputs were
checked. Call k of a run colors its own layout, which `peacock.fixtures`
generates from --seed and k. Calls continue while the next one should
end within --seconds. With --trace 1 each call is a traced run of the
same CLI call (perfbench/traced.py), and the per-layer metrics are
derived from its spans. Human-readable lines come first; the last line
of stdout is one JSON object. Per-run results, spans and the run
environment are written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_MAX_ITERS = 500  # the `peacock color --max-iters` default
SETUP_PROBES = 7
RUN_LIMIT_S = 165.0  # children still running then are killed; a run must end within 180 s
# Call k of a run with --seed s colors the layout drawn with seed s*1000+k. Each call
# gets its own layout because incidental heap state puts a call into one of a few
# page-fault modes (perfbench/README.md, "Allocator modes"); a run then samples several.
SEEDS_PER_RUN = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    style: str  # fixture family: "ordered" or "crossing"
    size: dict  # keyword arguments of the fixture generator
    dims: int = 1
    fans_only: bool = False
    max_iters: int = DEFAULT_MAX_ITERS

    def fixture(self, seed: int, size: dict | None = None):
        from peacock import fixtures

        if self.style == "ordered":
            return fixtures.make_ordered_bundles(**(size or self.size), seed=seed)
        return fixtures.make_crossing_bundles(**(size or self.size), seed=seed)

    def color_flags(self) -> list[str]:
        flags = ["--dims", str(self.dims)] if self.dims != 1 else []
        if self.max_iters != DEFAULT_MAX_ITERS:
            flags += ["--max-iters", str(self.max_iters)]
        return flags + (["--fans-only"] if self.fans_only else [])


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ordered-1d", "ordered", {"groups": 80, "edges_per_bundle": 25, "reverse_last": True}),
        Workload("ordered-3d", "ordered", {"groups": 20, "edges_per_bundle": 50, "reverse_last": True},
                 dims=3, max_iters=100),
        Workload("crossing-fans", "crossing", {"bundles": 8, "edges_per_bundle": 50}, fans_only=True),
    )
}

# Warm-up inputs: the same code paths at a size that costs a fraction of a second.
TINY = {
    "ordered": {"groups": 4, "edges_per_bundle": 4, "reverse_last": True},
    "crossing": {"bundles": 2, "edges_per_bundle": 4},
}

END_TO_END = {
    "color_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stress": "1",
    "bundle_order_frac": "frac",
}

PER_LAYER = {
    "model.load_layout_s": "s",
    "model.rss_hwm_mb": "MB",
    "bundling.build_weight_matrix_s": "s",
    "bundling.bundled_pairs": "count",
    "bundling.flag_density": "frac",
    "bundling.rss_hwm_mb": "MB",
    "dissimilarity.build_dissimilarity_matrix_s": "s",
    "dissimilarity.rss_hwm_mb": "MB",
    "coloring.optimize_s": "s",
    "coloring.iterations": "count",
    "coloring.first_iter_s": "s",
    "coloring.iter_s": "s",
    "coloring.optimize_minflt": "count",
    "coloring.normalize_colors_s": "s",
    "coloring.colors_to_display_s": "s",
    "coloring.rss_hwm_mb": "MB",
    "render.render_svg_s": "s",
    "render.svg_bytes": "B",
    "render.rss_hwm_mb": "MB",
    "pipeline.write_color_dump_s": "s",
    "pipeline.rss_hwm_mb": "MB",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    start: float
    end: float
    code: int
    rss_mb: float
    minflt: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spawn(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run argv to its exit, stdout to `log`; kill it at `deadline` (perf_counter)."""
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
    with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.daemon = True
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(start, end, proc.returncode, usage.ru_maxrss / 1024, usage.ru_minflt)


@dataclass
class Outcome:
    """One checked `peacock color` call, untraced or traced."""

    proc: Proc
    problems: list[str]
    stress: float | None = None
    order_frac: float | None = None
    spans: list = field(default_factory=list)


def judge(wl: Workload, fx, proc: Proc, pairs, colors: Path, svg: Path) -> Outcome:
    m = fx.layout.m
    problems = [] if proc.code == 0 else [f"exit code {proc.code}"]
    problems += checks.check_pair_count(pairs, int(fx.expected_flags.sum()))
    doc = checks.read_json(colors)
    problems += checks.check_color_dump(doc, m, wl.dims, wl.max_iters)
    problems += checks.check_svg(svg, m, wl.fans_only)
    if problems:
        return Outcome(proc, problems)
    return Outcome(proc, [], doc["stress"], checks.bundle_order_frac(doc["colors"], fx.bundles, fx.order))


def run_color(wl: Workload, fx, layout: Path, work: Path, deadline: float,
              trace: str | None = None) -> Outcome:
    """One `peacock color` call on `layout`; with `trace`, the traced run of it."""
    colors, svg, spans, log = work / "colors.json", work / "out.svg", work / "spans.json", work / "color.out"
    for p in (colors, svg, spans):
        p.unlink(missing_ok=True)
    args = ["color", "--input", str(layout), "--out-colors", str(colors), "--out-svg", str(svg),
            *wl.color_flags()]
    if trace is None:
        argv = [sys.executable, "-m", "peacock.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(spans), wl.name, trace, *args]
    proc = spawn(argv, log, deadline)
    outcome = judge(wl, fx, proc, checks.reported_pairs(log.read_text()), colors, svg)
    if trace is not None:
        outcome.spans = checks.read_json(spans) or []
        if not outcome.spans:
            outcome.problems.append("traced run wrote no spans")
    return outcome


def closed_loop(call, seconds: float, deadline: float) -> list:
    """Repeat `call()` back to back while the next one should end within `seconds`."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(call())
        now = time.perf_counter()
        durations.append(now - t)
        expected = statistics.median(durations)
        if now - start + expected > seconds or now + expected > deadline:
            return results


def measure_setup(work: Path, deadline: float) -> tuple[list[float], list[str]]:
    """Fresh-interpreter `import peacock.cli` times; the first, untimed, fills the caches."""
    argv = [sys.executable, "-c", "import peacock.cli"]
    probes = [spawn(argv, work / "setup.out", deadline) for _ in range(SETUP_PROBES + 1)]
    problems = [f"import peacock.cli exited {p.code}" for p in probes if p.code]
    return [p.seconds for p in probes[1:]], problems


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans alone."""
    def dur(s):
        return s["end"] - s["start"]

    root = next(s for s in spans if s["name"] == "peacock.color")
    probe = next(s for s in spans if s["parent"] is None and s["name"] == "coloring.optimize")
    calls = [s for s in spans if s["parent"] == root["id"]]
    by_name = {s["name"]: s for s in calls}
    opt = by_name["coloring.optimize"]
    pairs = by_name["bundling.build_weight_matrix"]["bundled_pairs"]
    m = by_name["model.load_layout"]["edges"]
    out: dict[str, float] = {}
    for s in calls:
        out[f"{s['name']}_s"] = out.get(f"{s['name']}_s", 0.0) + dur(s)
        key = s["name"].split(".")[0] + ".rss_hwm_mb"
        out[key] = max(out.get(key, 0.0), s["rss_hwm_mb"])
    out.update({
        "bundling.bundled_pairs": pairs,
        "bundling.flag_density": pairs / (m * (m - 1)),
        "coloring.iterations": opt["iterations"],
        "coloring.first_iter_s": dur(probe),
        "coloring.iter_s": (dur(opt) - dur(probe)) / max(1, opt["iterations"] - 1),
        "coloring.optimize_minflt": opt["minflt"],
        "render.svg_bytes": by_name["render.render_svg"]["svg_bytes"],
        "trace.overhead_s": dur(root) - sum(dur(s) for s in calls),
    })
    return out


def _median(values):
    return statistics.median(values) if values else None


def _trimmed_mean(values):
    """Mean after dropping the lowest and the highest value (the median for 3 or 4 values)."""
    if len(values) < 3:
        return statistics.fmean(values) if values else None
    return statistics.fmean(sorted(values)[1:-1])


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    problems: list[str]
    samples: dict  # name -> list of values, one per call or probe
    metrics: dict  # metric name -> value

    def line(self) -> dict:
        units = {**END_TO_END, **PER_LAYER}
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        }

    def report(self) -> list[str]:
        units = {**END_TO_END, **PER_LAYER}
        lines = [f"{self.workload}: {self.attempted} calls attempted, {self.failed} failed"]
        lines += [f"  problem: {p}" for p in self.problems]

        def row(name, value, unit):
            values = self.samples.get(name, [])
            spread = ""
            if values:
                q1, q3 = _quartiles(values)
                spread = f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
            shown = "None" if value is None else f"{value:.6g}"
            return f"  {name:<44} {shown:>12} {unit}{spread}"

        lines += [row(name, value, units[name]) for name, value in self.metrics.items()]
        lines.append(row("failed_frac", self.failed / self.attempted, "1"))
        if "minflt" in self.samples:
            lines.append(row("minflt", _median(self.samples["minflt"]), "count"))
        return lines


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[Result, list[dict]]:
    """One run: set-up probes, a warm-up call, then the closed loop of checked calls."""
    from peacock.model import save_layout

    deadline = time.perf_counter() + RUN_LIMIT_S
    work = OUT / f"work-{wl.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    layout = work / "layout.json"
    counter = itertools.count()

    def call():
        k = next(counter)
        fx = wl.fixture(seed * SEEDS_PER_RUN + k)
        save_layout(fx.layout, layout)
        return run_color(wl, fx, layout, work, deadline, f"traced-{k}" if trace else None)

    try:
        setup, problems = measure_setup(work, deadline)
        tiny = wl.fixture(seed, TINY[wl.style])
        save_layout(tiny.layout, layout)
        run_color(wl, tiny, layout, work, deadline)  # warm-up, unchecked
        outcomes = closed_loop(call, seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, o in enumerate(outcomes):
        problems += [f"call {i}: {p}" for p in o.problems]
    ok = [o for o in outcomes if not o.problems]
    samples = {"minflt": [o.proc.minflt for o in ok]}
    if trace:
        per_call = [layer_metrics(o.spans) for o in ok]
        samples.update({name: [r[name] for r in per_call] for name in PER_LAYER})
        metrics = {name: _median(samples[name]) for name in PER_LAYER}
    else:
        samples.update({
            "color_s": [o.proc.seconds for o in ok],
            "setup_s": setup,
            "peak_rss_mb": [o.proc.rss_mb for o in ok],
            "stress": [o.stress for o in ok],
            "bundle_order_frac": [o.order_frac for o in ok],
        })
        metrics = {name: _median(samples[name]) for name in END_TO_END}
        # Per-call time and RSS are multi-modal across heap-state modes; a median would
        # jump between modes from run to run, a trimmed mean weighs them by frequency.
        metrics.update({name: _trimmed_mean(samples[name]) for name in ("color_s", "peak_rss_mb")})
    spans = [s for o in outcomes for s in o.spans]
    return Result(wl.name, len(outcomes), len(outcomes) - len(ok), problems, samples, metrics), spans


def _blas_threads(np) -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if it cannot be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "glibc": " ".join(platform.libc_ver()),
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "peacock" / "cli.py").is_file():
        print(f"perfbench: no peacock sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    env = environment()
    print("env: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    for name in names:
        result, spans = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        stem = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}"
        with open(stem.with_suffix(".json"), "w") as fh:
            json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                       **vars(result)}, fh, indent=1)
        if args.trace:
            with open(stem.with_name(stem.name + "-spans.json"), "w") as fh:
                json.dump(spans, fh)
        print("\n".join(result.report()))
        results.append(result)

    if len(results) == 1:
        line = results[0].line()
    else:
        lines = [r.line() for r in results]
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{r.workload}:{k}": v for r, x in zip(results, lines)
                        for k, v in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

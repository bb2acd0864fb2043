"""termembed benchmark: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
alternates untraced and traced passes and reports the per-layer metrics.
--smoke swaps in tiny shapes (used by perfbench/test_perfbench.py). The last
line of stdout is the result JSON; the line before it holds the details and
the environment, which also go to .perfbench/results/. Metric names and
units come from BENCHMARK.json at the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# One closed-loop caller; single-threaded BLAS keeps the small matrix-vector
# products of the solver steady and the outputs bit-reproducible.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Before every repetition of the command, `build` runs for at least
# BUILD_BURST_S (at least once); setup_s is the median over all of them, so
# its samples spread over the whole window.
BUILD_BURST_S = 0.15
MIN_TRACED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["serve", "tight", "audit"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the smoke test")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def percentile_ms(samples, q) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1e3


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_burst(wl) -> list[float]:
    times = [wl.build()]
    while sum(times) < BUILD_BURST_S:
        times.append(wl.build())
    return times


def measure(make, count: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run over `count` input instances, used in turn: each
    repetition is a burst of builds, then the command (and, on serve, the
    library loop) on the next instance, until the window is spent.
    Returns (metrics, details)."""
    instances, command_runs, builds, latencies = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    rep = 0
    # Start another repetition only if one more still fits in the window.
    while rep < count or time.perf_counter() - start + last <= seconds:
        r0 = time.perf_counter()
        if rep < count:
            instances.append(make(rep))
            command_runs.append([])
            instances[-1].library_setup()
        wl = instances[rep % count]
        builds += build_burst(wl)
        command_runs[rep % count].append(wl.command())
        latencies += wl.library_pass()
        last = time.perf_counter() - r0
        rep += 1
    per_instance = [statistics.median(runs) for runs in command_runs]
    command_s = statistics.fmean(per_instance)
    details = {
        "setup_runs": len(builds),
        "command_runs_s": command_runs,
        "quality_per_instance": [wl.quality for wl in instances],
    }
    if latencies:
        details["query_qps"] = len(instances[0].queries) / command_s
        details["embed_p50_ms"] = percentile_ms(latencies, 50)
        details["embed_p99_ms"] = percentile_ms(latencies, 99)
        details["embed_samples"] = len(latencies)
    metrics = {
        "setup_s": statistics.median(builds),
        "command_s": command_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, details


def one_pass(wl, tracer=None) -> float:
    t0 = time.perf_counter()
    wl.build(tracer)
    wl.library_setup()
    wl.command(tracer)
    wl.library_pass()
    return time.perf_counter() - t0


def traced(wl, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over one instance; per-layer
    metrics are medians over the traced passes, and the counts must repeat
    exactly."""
    from spans import Tracer, exact_counts, layer_metrics

    untraced_walls, per_pass, counts = [], [], []
    start = time.perf_counter()
    last = 0.0
    while len(per_pass) < MIN_TRACED_PASSES or time.perf_counter() - start + last <= seconds:
        r0 = time.perf_counter()
        untraced_walls.append(one_pass(wl))
        tracer = Tracer()
        tracer.install()
        try:
            root = tracer.open("bench.pass")
            one_pass(wl, tracer)
            tracer.close(root)
        finally:
            tracer.uninstall()
        per_pass.append(layer_metrics(tracer))
        counts.append(exact_counts(tracer))
        last = time.perf_counter() - r0
    tracer.dump(spans_path)
    if any(c != counts[0] for c in counts):
        wl.tally.fail("traced passes on identical inputs gave different exact counts")

    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(counts[0])
    metrics["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    details = {
        "traced_passes": len(per_pass),
        "untraced_pass_s": untraced_walls,
        "traced_pass_s": [p["trace.wall_s"] for p in per_pass],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counts": counts[0],
    }
    details.update(wl.quality)
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "termembed" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"perfbench: no termembed sources under {src} or no {spec_path.name}\n")
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # Before numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("TE_SEED", None)
    sys.path.insert(0, str(src))
    import termembed

    if Path(termembed.__file__).resolve().parent != (src / "termembed").resolve():
        sys.stderr.write(f"perfbench: imported termembed from {termembed.__file__}, not {src}\n")
        return 2
    from workloads import SHAPES, SMOKE_SHAPES, WORKLOADS, Tally

    shape = (SMOKE_SHAPES if args.smoke else SHAPES)[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tally = Tally()

    def make(index):
        return WORKLOADS[args.workload](shape, args.seed, index, workdir / str(index), tally)

    try:
        if args.trace:
            values, details = traced(make(0), args.seconds, results / f"{tag}.spans.jsonl")
        else:
            values, details = measure(make, shape.instances, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        sys.stderr.write(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, extra {sorted(set(values) - set(names))}\n"
        )
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    details["failed_frac"] = tally.failed / max(tally.attempted, 1)
    record = {
        "workload": args.workload,
        "shape": vars(shape),
        "environment": environment(args.seed),
        "details": details,
        "problems": tally.problems,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (results / f"{tag}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

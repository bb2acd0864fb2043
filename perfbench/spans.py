"""In-memory span recorder for the traced benchmark run.

The tracer wraps termembed's public functions from outside the package, at
the names their callers look them up by (``termembed.cli.estimate_sampled``,
``termembed.extension.distances_to``, ...), records one span per call (name,
start, end, parent span, query id) and collects exact counts from the
returned objects and input sizes. ``uninstall`` restores every original.
Nothing in ``src/`` knows about it.

Span names are ``<layer>.<function>``; the layer is the termembed module the
function belongs to, ``cli`` for whole commands, and ``bench`` for the root
span of a benchmark pass.
"""
from __future__ import annotations

import functools
import os
import time

import numpy as np

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.queries: list[int] = []
        self._stack = [-1]
        self._next_query = 0
        self._patches: list[tuple] = []
        # Exact counts, taken from returned objects and input sizes.
        self.solves: list[tuple] = []  # (iterations, radius, converged, residual, max_iters)
        self.io_bytes = 0
        self.direction_bytes = 0  # computed: |Y| * d * 8
        self.hull_tiers = [0, 0, 0]  # computed: vertices, pair midpoints, random samples
        self.pairs = 0
        self.out_dim = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, new_query: bool = False) -> int:
        idx = len(self.names)
        parent = self._stack[-1]
        if new_query:
            self._next_query += 1
            query = self._next_query
        else:
            query = self.queries[parent] if parent >= 0 else -1
        self.names.append(name)
        self.parents.append(parent)
        self.queries.append(query)
        self.ends.append(0.0)
        self.starts.append(_now())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _now()
        self._stack.pop()

    def call(self, name, fn, *args, new_query=False, **kwargs):
        idx = self.open(name, new_query)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None, new_query=False) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, new_query=new_query, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def patch_tiers(self, owner, attr: str) -> None:
        """Split chd's violation stream into vertex / midpoint / random tier spans.

        The stream yields the vertex chunk first, then one chunk per first
        index of the pair midpoints (|T| - 1 chunks), then the random hull
        points, as its docstring documents. Each chunk's production time
        becomes a span; the consumer's time stays with estimate_sampled.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(pi, T, samples, seed):
            k = len(T)
            stream = original(pi, T, samples, seed)
            chunk = 0
            while True:
                tier = "vertex" if chunk == 0 else "midpoint" if chunk < k else "random"
                idx = self.open(f"chd.tier.{tier}")
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item
                chunk += 1

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import termembed
        from termembed import chd, cli, extension, harness, pointio

        def count_bytes(args, _):
            self.io_bytes += os.path.getsize(args[0])

        def count_solve(args, sol):
            self.solves.append(
                (sol.iterations, sol.radius, sol.converged, sol.residual, args[1].solver.max_iters)
            )

        def count_directions(_, Y):
            self.direction_bytes += Y.directions.shape[0] * Y.directions.shape[1] * 8

        def count_hull(args, _):
            k, samples = len(args[1]), int(args[2])
            for tier, points in enumerate((k, k * (k - 1) // 2, samples)):
                self.hull_tiers[tier] += points

        def count_pairs(_, report):
            self.pairs += report.pair_count

        def record_out_dim(_, E):
            self.out_dim = E.out_dim

        for attr in ("read_points_csv", "read_points_bin", "write_points_csv", "write_points_bin"):
            self.patch(pointio, attr, f"pointio.{attr}", count_bytes)
        for owner in (cli, termembed):
            self.patch(owner, "build_point_set", "geometry.build_point_set")
            self.patch(owner, "plan_dimension", "sketch.plan_dimension")
            self.patch(owner, "generate_sketch", "sketch.generate_sketch")
            self.patch(owner, "build_embedder", "extension.build_embedder", record_out_dim)
        self.patch(cli, "direction_set", "geometry.direction_set", count_directions)
        self.patch(cli, "save_sketch", "sketch.save_sketch")
        self.patch(cli, "load_sketch", "sketch.load_sketch")
        self.patch(cli, "estimate_sampled", "chd.estimate_sampled", count_hull)
        self.patch(extension, "sketch_points", "sketch.sketch_points")
        self.patch(extension, "distances_to", "geometry.distances_to")
        self.patch(extension, "solve_extension", "extension.solve_extension", count_solve)
        self.patch(extension, "lift", "extension.lift")
        for attr in ("embed", "embed_with_info"):
            self.patch(extension.TerminalEmbedder, attr, "extension.embed", new_query=True)
        self.patch(harness, "sample_suite", "harness.sample_suite")
        self.patch(harness, "evaluate", "harness.evaluate", count_pairs)
        if hasattr(chd, "_violation_stream"):
            self.patch_tiers(chd, "_violation_stream")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span. Self time is the span's duration
        minus its children's; calls are synchronous, so children never overlap."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        import json

        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                rec = {
                    "id": i,
                    "name": name,
                    "start": self.starts[i] - t0,
                    "end": self.ends[i] - t0,
                    "parent": self.parents[i],
                    "query": self.queries[i],
                }
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


LAYERS = ("cli", "pointio", "geometry", "sketch", "extension", "chd", "harness", "bench")
COMMANDS = ("build", "query", "eval", "verify-chd")
# Iteration histogram bins: [lo, hi) solver iterations per solve.
ITER_BINS = ((0, 1), (1, 2), (2, 10), (10, 100), (100, 1000), (1000, None))


def _bin_name(lo, hi):
    if hi is None:
        return f"extension.iters_{lo}up"
    return f"extension.iters_{lo}" if hi == lo + 1 else f"extension.iters_{lo}to{hi - 1}"


def exact_counts(tr: Tracer) -> dict:
    """Counts that must repeat exactly for identical inputs: taken from the
    returned objects (solver iterations, report pairs), from file sizes, or
    computed from input sizes (direction-set bytes, hull points per tier)."""
    its = np.array([s[0] for s in tr.solves], dtype=np.int64)
    radius = np.array([s[1] for s in tr.solves], dtype=np.float64)
    cap = np.array([s[4] for s in tr.solves], dtype=np.int64)
    counts = {
        "extension.solve_calls": len(tr.solves),
        "extension.positive_radius": int(np.sum(radius > 0.0)),
        "extension.warm_start_hits": int(np.sum((radius > 0.0) & (its == 0))),
        "extension.capped": int(np.sum(its >= cap)),
        "extension.converged": sum(1 for s in tr.solves if s[2]),
        "geometry.distances_to_calls": tr.names.count("geometry.distances_to"),
        "pointio.bytes": tr.io_bytes,
        "geometry.direction_set_bytes": tr.direction_bytes,
        "chd.vertex_points": tr.hull_tiers[0],
        "chd.midpoint_points": tr.hull_tiers[1],
        "chd.random_points": tr.hull_tiers[2],
        "chd.hull_points": sum(tr.hull_tiers),
        "harness.pairs": tr.pairs,
        "sketch.out_dim": tr.out_dim,
        "trace.spans": len(tr.names),
    }
    for lo, hi in ITER_BINS:
        counts[_bin_name(lo, hi)] = int(np.sum((its >= lo) & ((its < hi) if hi else True)))
    return counts


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer times (self time unless noted), counts and ratios of one
    traced pass whose root span is the only span without a parent."""
    dur, self_t = tr.self_times()
    own: dict[str, float] = {}
    incl: dict[str, float] = {}
    layer = dict.fromkeys(LAYERS, 0.0)
    for name, d, s in zip(tr.names, dur, self_t):
        own[name] = own.get(name, 0.0) + float(s)
        incl[name] = incl.get(name, 0.0) + float(d)
        layer[name.split(".", 1)[0]] += float(s)

    c = exact_counts(tr)
    its = np.array([s[0] for s in tr.solves], dtype=np.float64)
    residuals = [s[3] for s in tr.solves]
    solves = max(c["extension.solve_calls"], 1)
    chd_s = incl.get("chd.estimate_sampled", 0.0)
    midpoint_s = incl.get("chd.tier.midpoint", 0.0)
    hull_points = c["chd.hull_points"]

    m = {f"cli.{cmd}.self_s": own.get(f"cli.{cmd}", 0.0) for cmd in COMMANDS}
    m.update(
        {
            "pointio.read_s": own.get("pointio.read_points_csv", 0.0)
            + own.get("pointio.read_points_bin", 0.0),
            "pointio.write_s": own.get("pointio.write_points_csv", 0.0)
            + own.get("pointio.write_points_bin", 0.0),
            "geometry.build_point_set_s": own.get("geometry.build_point_set", 0.0),
            "geometry.distances_to_s": own.get("geometry.distances_to", 0.0),
            "geometry.direction_set_s": own.get("geometry.direction_set", 0.0),
            "geometry.direction_set_mb": c["geometry.direction_set_bytes"] / 2**20,
            "sketch.generate_sketch_s": own.get("sketch.generate_sketch", 0.0),
            "sketch.sketch_points_s": own.get("sketch.sketch_points", 0.0),
            "sketch.load_sketch_s": own.get("sketch.load_sketch", 0.0),
            "extension.solve_extension_s": own.get("extension.solve_extension", 0.0),
            "extension.lift_s": own.get("extension.lift", 0.0),
            "extension.iters_mean": float(its.mean()) if its.size else 0.0,
            "extension.iters_p99": float(np.percentile(its, 99)) if its.size else 0.0,
            "extension.capped_frac": c["extension.capped"] / solves,
            "extension.warm_start_hit_frac": c["extension.warm_start_hits"]
            / max(c["extension.positive_radius"], 1),
            "extension.converged_frac": c["extension.converged"] / solves,
            "extension.max_residual": float(max(residuals, default=0.0)),
            "chd.estimate_sampled_s": chd_s,
            "chd.midpoint_s": midpoint_s,
            "chd.midpoint_share": midpoint_s / chd_s if chd_s > 0.0 else 0.0,
            "chd.hull_points_per_s": hull_points / chd_s if chd_s > 0.0 else 0.0,
            "harness.sample_suite_s": own.get("harness.sample_suite", 0.0),
            "harness.evaluate_s": own.get("harness.evaluate", 0.0),
        }
    )
    m.update(c)
    m.update({f"{name}.self_s": t for name, t in layer.items()})
    m["trace.wall_s"] = float(dur[0])
    m["trace.self_sum_s"] = float(self_t.sum())
    return m

"""Command-line surface: build, query, verify-chd, eval, scaling.

Every subcommand is deterministic. build takes one global 64-bit seed
(--seed, else TE_SEED, else 0) and stores it in the bundle; verify-chd and
eval use the bundle's seed unless their --seed overrides it, and no other
command reads TE_SEED. The seed fans out to labeled sub-seeds for the
sketch, the query samplers, and the hull-distortion estimator, and the
config is echoed into every artifact. scaling takes its (epsilon, C, seed)
grid from --epsilons, --consts and --seeds alone. stdout carries data (JSON
lines or reports); stderr carries errors only.

Exit codes: 0 success, 1 usage, 2 input/dimension error, 3 assertion
threshold failed (the report is still written).
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import harness, pointio
from .chd import check_audit_size, estimate_sampled
from .errors import DimensionMismatch, EmbeddingError, FormatError, InvalidMatrix
from .extension import (
    TOL,
    EfnEmbedder,
    ExactEmbedding,
    SolverConfig,
    build_embedder,
    exact_small_embedding,
)
from .geometry import build_point_set, direction_set
from .seeding import derive_seed
from .sketch import _typed, generate_sketch, load_sketch, plan_dimension, save_sketch

BUNDLE_MAGIC = "TEBL"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ASSERT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _dump_json(obj, path=None) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _resolve_seed(value) -> int:
    """build's seed: the --seed value, else TE_SEED, else 0; a TE_SEED that
    is not an integer is a usage error."""
    if value is not None:
        return value
    env = os.environ.get("TE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise _UsageError(f"TE_SEED must be an integer, got {env!r}") from None


def _number(cast, lo):
    """argparse type: a finite cast(text) >= lo; anything else is a usage error."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not lo <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite {cast.__name__} >= {lo}")
        return value

    return parse


def _comma_list(item):
    """argparse type: a comma list of item(text) values; a ValueError is a usage error."""

    def parse(text: str) -> list:
        try:
            return [item(t) for t in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _sampler_modes(text: str) -> list[str]:
    """argparse type: a comma list of sampler modes with distinct labels."""
    modes = text.split(",")
    try:
        harness.mode_labels(modes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return modes


def _add_sketch_flags(p: argparse.ArgumentParser) -> None:
    """The flags build and scaling share: sketch distribution, solver, point format."""
    p.add_argument("--dist", choices=["rademacher", "gaussian"], default="rademacher",
                   help="sketch entry distribution")
    p.add_argument("--solver-iters", type=_number(int, 0), default=5000,
                   help="feasibility solver iteration cap")
    p.add_argument("--format", dest="fmt", choices=["csv", "bin"], default=None,
                   help="override point-file format detection")


def _parse_asserts(pairs) -> dict[str, float]:
    out = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise _UsageError(f"--assert expects KEY=VALUE, got {raw!r}")
        key, val = raw.split("=", 1)
        try:
            out[key.strip().replace("-", "_")] = float(val)
        except ValueError:
            raise _UsageError(f"--assert value must be numeric, got {raw!r}")
    return out


def _check_asserts(pairs, measured: dict) -> int:
    """The exit code for --assert KEY=VAL pairs: EXIT_ASSERT, each failure on
    stderr, unless every measured KEY <= VAL."""
    failures = []
    for key, bound in _parse_asserts(pairs).items():
        if key not in measured:
            raise _UsageError(
                f"unknown assert key {key!r}; known: {', '.join(sorted(measured))}"
            )
        value = measured[key]
        # An undefined statistic (None) fails its assert.
        if value is None or not (value <= bound):
            failures.append(f"{key}={value!r} exceeds {bound!r}")
    for f in failures:
        sys.stderr.write(f"assert failed: {f}\n")
    return EXIT_ASSERT if failures else EXIT_OK


# ---------------------------------------------------------------------------
# bundle I/O


def _embedder(X, plan, epsilon, distribution, seed, solver):
    """The embedder a DimensionPlan makes of X: on the sketch path, a sketch
    drawn from the "sketch" sub-seed of seed; else the exact path's basis."""
    if plan.mode == "sketch":
        pi = generate_sketch(plan.m, X.d, distribution, derive_seed(seed, "sketch"))
        return build_embedder(X, pi, epsilon, solver)
    return exact_small_embedding(X)


def _finite_float(text):
    """A JSON number or constant (NaN, Infinity) as a float, which must be
    finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def load_bundle(bundle_dir):
    """Reconstruct the embedder (sketch or exact path) from a bundle dir.

    A config.json that is not strict JSON (NaN, Infinity, or a number that
    overflows to one), lacks a key the commands read, or has an epsilon
    outside (0, 1) raises FormatError; other top-level keys are ignored. The
    seed must be a JSON integer and epsilon a number. The "solver" object,
    which every bundle stores and a sketch bundle's embedder runs, must hold
    exactly the SolverConfig fields that build wrote from it, with
    values SolverConfig accepts (max_iters an integer). Two retired keys
    that older bundles store are dropped when they hold the value the solver
    now fixes: "step_rule" when it is "polyak" (the one step left) and "tol"
    when it equals extension.TOL (the target's slack). Any other value of
    either is a FormatError naming it, since loading it would change the
    algorithm. The mode must be "sketch" or
    "exact_small", and m_plan a JSON integer, equal to the m of sketch.json
    on a sketch bundle. A sketch.bin or basis.bin that SketchMatrix or
    ExactEmbedding refuses is a FormatError naming the file."""
    bundle_dir = Path(bundle_dir)
    cfg_path = bundle_dir / "config.json"
    if not cfg_path.exists():
        raise FormatError(f"{bundle_dir}: not a bundle (missing config.json)")
    try:
        meta = json.loads(
            cfg_path.read_text(encoding="utf-8"),
            parse_constant=_finite_float,
            parse_float=_finite_float,
        )
        magic = meta.get("magic") if isinstance(meta, dict) else None
        if magic != BUNDLE_MAGIC:
            raise FormatError(f"{cfg_path}: bad magic {magic!r}")
        _typed(meta, "seed", (int,))  # read later by verify-chd and eval
        epsilon = float(_typed(meta, "epsilon", (int, float)))
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon {epsilon} outside (0, 1)")
        if meta["mode"] not in ("sketch", "exact_small"):
            raise ValueError(f"unknown mode {meta['mode']!r}; expected 'sketch' or 'exact_small'")
        m_plan = _typed(meta, "m_plan", (int,))  # reported by verify-chd
        s = {**meta["solver"]}  # a copy: meta is echoed into reports
        for key, fixed in (("step_rule", "polyak"), ("tol", TOL)):
            value = s.pop(key, fixed)
            if value != fixed:
                raise ValueError(f"retired solver {key} {value!r}; only {fixed!r} loads")
        if set(s) != {f.name for f in fields(SolverConfig)}:
            raise KeyError(f"solver keys {sorted(s)}")
        solver = SolverConfig(**s)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{cfg_path}: corrupt bundle config: {exc!r}") from exc
    X = build_point_set(pointio.read_points_bin(bundle_dir / "points.bin"), copy=False)
    if meta["mode"] == "sketch":
        pi = load_sketch(bundle_dir / "sketch.json")
        if pi.m != m_plan:
            raise FormatError(f"{cfg_path}: m_plan {m_plan} differs from the sketch's m = {pi.m}")
        embedder = build_embedder(X, pi, epsilon, solver)
    else:
        basis_path = bundle_dir / "basis.bin"
        try:
            embedder = ExactEmbedding(X=X, basis=pointio.read_points_bin(basis_path))
        except (DimensionMismatch, InvalidMatrix) as exc:
            raise FormatError(f"{basis_path}: {exc}") from None
    return embedder, meta


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    seed, solver = _resolve_seed(args.seed), SolverConfig(args.solver_iters)
    fmt = pointio.detect_format(args.points, args.fmt)
    X = build_point_set(pointio.read_points(args.points, fmt), copy=False)
    plan = plan_dimension(X.n, args.epsilon, args.const_c, X.d)
    # The embedder first: a sketch above sketch.MAX_FROBENIUS writes nothing.
    embedder = _embedder(X, plan, args.epsilon, args.dist, seed, solver)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pointio.write_points_bin(out_dir / "points.bin", X.points)
    meta = {
        "magic": BUNDLE_MAGIC,
        "mode": plan.mode,
        "m_plan": plan.m,
        "epsilon": args.epsilon,
        "C": args.const_c,
        "distribution": args.dist,
        "seed": seed,
        "solver": asdict(solver),
        "n": X.n,
        "d": X.d,
        "source": str(args.points),
        "format": fmt,
    }
    if plan.mode == "sketch":
        save_sketch(embedder.Pi, out_dir / "sketch.json", out_dir / "sketch.bin")
    else:
        pointio.write_points_bin(out_dir / "basis.bin", embedder.basis)
        meta["rank"] = embedder.rank
    pointio.write_points_bin(out_dir / "embedded.bin", embedder.base_images)
    meta["out_dim"] = embedder.out_dim
    _dump_json(meta, out_dir / "config.json")
    sys.stdout.write(_dump_json({"mode": plan.mode, "m": plan.m, "out_dim": embedder.out_dim}))
    return EXIT_OK


def _cmd_query(args) -> int:
    embedder, meta = load_bundle(args.bundle)
    fmt = pointio.detect_format(args.queries, args.fmt)
    outputs, per_query = embedder.embed_batch(pointio.read_points(args.queries, fmt))
    out_path = Path(args.out)
    diag_path = Path(args.diagnostics) if args.diagnostics else out_path.with_suffix(
        out_path.suffix + ".diag.json"
    )
    pointio.write_points(out_path, outputs, fmt)
    _dump_json({"config": meta, "queries": len(per_query), "per_query": per_query}, diag_path)
    return EXIT_OK


_NO_WITNESS = {"max_violation": 0.0, "witness_weights": [], "witness_tier": None, "tier_max": {}}


def _audit(embedder, Y, samples, seed) -> dict:
    """verify-chd's witness fields for a sketch-path embedder and the
    direction set Y of its terminals: the sampled hull-distortion estimate
    (chd.estimate_sampled) on the "chd" sub-seed of seed."""
    if len(Y) == 0:
        return {"method": "sampled", **_NO_WITNESS}
    est = estimate_sampled(embedder.Pi, Y, samples, derive_seed(seed, "chd"))
    return {
        "method": "sampled",
        "max_violation": est.max_violation,
        "witness_weights": [float(w) for w in est.witness.weights],
        "witness_tier": est.witness_tier,
        "tier_max": est.tier_max,
    }


def _suite(X, per_mode, seed, modes=None):
    """eval's sampled queries and their labels: harness.sample_suite on the
    "samplers" sub-seed of seed (modes None: the default suite)."""
    return harness.sample_suite(X, per_mode, derive_seed(seed, "samplers"), modes)


def _cmd_verify_chd(args) -> int:
    embedder, meta = load_bundle(args.bundle)
    seed = meta["seed"] if args.seed is None else args.seed
    report: dict = {
        "m": meta["m_plan"],
        "epsilon": meta["epsilon"],
        "seed": seed,
    }
    if meta["mode"] != "sketch":
        # The exact path is an isometry on the terminal span; there is no
        # sketch to audit.
        report.update({"method": "exact_small", **_NO_WITNESS})
    else:
        # Refuses a set beyond estimate_sampled's budget (exit 2) before
        # direction_set allocates it or anything is written.
        check_audit_size(embedder.X.n, embedder.X.d, embedder.Pi.m)
        report.update(_audit(embedder, direction_set(embedder.X), args.samples, seed))

    text = _dump_json(report, args.report)
    if args.report is None:
        sys.stdout.write(text)
    # Only the report's numbers can be bounded: not the weights, the tier
    # name (None on the exact path) or the tier maxima.
    measured = {
        k: v for k, v in report.items() if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    return _check_asserts(args.asserts, measured)


def _cmd_eval(args) -> int:
    embedder, meta = load_bundle(args.bundle)
    seed = meta["seed"] if args.seed is None else args.seed
    if args.queries_file:
        fmt = pointio.detect_format(args.queries_file, None)
        queries = pointio.read_points(args.queries_file, fmt)
        labels = ["file"] * queries.shape[0]
    else:
        queries, labels = _suite(embedder.X, args.queries_per_mode, seed, args.samplers)
    target = embedder
    if args.baseline == "efn":
        target = EfnEmbedder(X=embedder.X, base_images=embedder.base_images)
    report = harness.evaluate(
        target,
        queries,
        labels,
        config_echo={**meta, "eval_seed": seed, "baseline": args.baseline},
        keep_raw=args.raw_dump is not None,
    )
    if args.raw_dump:
        harness.write_raw_csv(report, args.raw_dump)
    text = _dump_json(report.to_dict(), args.report)
    if args.report is None:
        sys.stdout.write(text)
    measured = {
        "max_ratio_dev": report.max_abs_ratio_dev,
        "distortion": report.distortion,
        "max_residual": report.max_residual,
        "ratio_max": report.ratio_max,
        "max_anchor_rel_error": report.max_anchor_rel_error,
    }
    return _check_asserts(args.asserts, measured)


_SCALING_COLUMNS = ("epsilon", "C", "seed", "m", "mode", "chd_max_violation", "max_ratio_dev")


def _cmd_scaling(args) -> int:
    """One row per (epsilon, C, seed) cell, as build, verify-chd and eval
    report it on a bundle built with those values: the plan's m and mode,
    verify-chd's max_violation over --chd-samples (0 on the exact path, an
    isometry on the terminal span) and eval's max_abs_ratio_dev over the
    default suite. The direction set depends on X alone, so it is built
    once, on the first sketch-path cell; every sketch-path cell checks the
    audit budget for its m first, and a refusal writes no table."""
    fmt = pointio.detect_format(args.points, args.fmt)
    X = build_point_set(pointio.read_points(args.points, fmt), copy=False)
    solver = SolverConfig(args.solver_iters)
    rows, Y = [], None
    for eps, C, seed in itertools.product(args.epsilons, args.consts, args.seeds):
        plan = plan_dimension(X.n, eps, C, X.d)
        embedder = _embedder(X, plan, eps, args.dist, seed, solver)
        chd = 0.0
        if plan.mode == "sketch":
            check_audit_size(X.n, X.d, plan.m)
            Y = direction_set(X) if Y is None else Y
            chd = float(_audit(embedder, Y, args.chd_samples, seed)["max_violation"])
        report = harness.evaluate(embedder, *_suite(X, args.queries_per_mode, seed))
        values = (eps, C, seed, plan.m, plan.mode, chd, report.max_abs_ratio_dev)
        rows.append(dict(zip(_SCALING_COLUMNS, values)))
    if args.out and Path(args.out).suffix.lower() == ".json":
        _dump_json(rows, args.out)
        return EXIT_OK
    lines = [",".join(_SCALING_COLUMNS)] + [",".join(map(str, row.values())) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The one argument parser of the process: it depends on no input, and
    parsing leaves it unchanged, so every main call shares it."""
    parser = _Parser(
        prog="termembed",
        description="Terminal dimensionality reduction: build a sketch bundle, "
        "embed queries with all distances to the terminal set preserved, and "
        "verify the distortion empirically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="sketch a point set into an embedder bundle")
    p.add_argument("points", help="terminal point file (.csv or .bin)")
    p.add_argument("--out", required=True, help="bundle directory to write")
    p.add_argument("--epsilon", type=float, default=0.25, help="distortion target in (0,1)")
    p.add_argument("--const-C", dest="const_c", type=float, default=4.0,
                   help="constant C in m = ceil(C * eps^-2 * ln|Y|)")
    p.add_argument("--seed", type=int, default=None,
                   help="global seed (default: TE_SEED env var, else 0)")
    _add_sketch_flags(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="embed query points against a bundle")
    p.add_argument("bundle", help="bundle directory from `build`")
    p.add_argument("queries", help="query point file (.csv or .bin)")
    p.add_argument("out", help="output file; same format family as the input")
    p.add_argument("--diagnostics", default=None, help="diagnostics JSON path")
    p.add_argument("--format", dest="fmt", choices=["csv", "bin"], default=None)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("verify-chd", help="estimate the sketch's convex-hull distortion")
    p.add_argument("bundle")
    p.add_argument("--samples", type=_number(int, 1), default=20000, help="random hull points "
                   "on 2, 3 and ceil(sqrt(|Y|)) directions, beyond all vertices and midpoints")
    p.add_argument("--seed", type=int, default=None, help="override the bundle seed")
    p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--assert", dest="asserts", action="append", metavar="KEY=VAL",
                   help="exit 3 unless measured KEY <= VAL (e.g. max_violation=0.25)")
    p.set_defaults(func=_cmd_verify_chd)

    p = sub.add_parser("eval", help="measure terminal distortion over sampled queries")
    p.add_argument("bundle")
    p.add_argument("--queries-per-mode", type=_number(int, 1), default=25)
    p.add_argument("--samplers", type=_sampler_modes, default=None,
                   help="comma list, e.g. box,member,shell:0.5,far:3 (default: full suite)")
    p.add_argument("--queries-file", default=None,
                   help="evaluate these points instead of sampled queries")
    p.add_argument("--seed", type=int, default=None, help="override the bundle seed")
    p.add_argument("--baseline", choices=["solver", "efn"], default="solver",
                   help="efn swaps in the snap-to-nearest baseline extension")
    p.add_argument("--report", default=None)
    p.add_argument("--raw-dump", default=None, help="per-pair CSV dump path")
    p.add_argument("--assert", dest="asserts", action="append", metavar="KEY=VAL",
                   help="e.g. max_ratio_dev=0.3 or distortion=1.5")
    p.set_defaults(func=_cmd_eval)

    # No abbreviations: --epsilon and --seed, which build takes, would
    # otherwise parse as --epsilons and --seeds.
    p = sub.add_parser("scaling", help="factorial (epsilon, C, seed) distortion study",
                       allow_abbrev=False)
    p.add_argument("points")
    p.add_argument("--epsilons", type=_comma_list(float), required=True,
                   help="comma list, e.g. 0.5,0.25")
    p.add_argument("--consts", type=_comma_list(float), required=True,
                   help="comma list of C values")
    p.add_argument("--seeds", type=_comma_list(int), required=True, help="comma list of seeds")
    p.add_argument("--queries-per-mode", type=_number(int, 1), default=10)
    p.add_argument("--chd-samples", type=_number(int, 1), default=2000)
    p.add_argument("--out", default=None, help=".csv or .json table (default: stdout CSV)")
    _add_sketch_flags(p)
    p.set_defaults(func=_cmd_scaling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (EmbeddingError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

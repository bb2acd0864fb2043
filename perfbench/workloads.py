"""The benchmark's workloads: inputs made from a seed, the commands they run
through ``termembed.cli.main`` (in-process), and the checks on the outputs.

Every workload builds a bundle from a terminal file, then runs one CLI
command on it:

  serve  n=1200, d=256, eps=0.25, C=1 (m=227), CSV files. ``query`` over a
         mixed batch, then the README library path (build_point_set ->
         plan_dimension -> generate_sketch -> build_embedder) and a
         single-query ``E.embed(u)`` loop over the same queries.
  tight  n=600, d=256, eps=0.25, C=0.25 (m=52), TEPT .bin terminals.
         ``eval`` with the default sampler suite.
  audit  n=64, d=256, eps=0.5, C=1 (m=34), TEPT .bin terminals.
         ``verify-chd --samples 20000``. No query is embedded.

The checks use only numpy and the benchmark's own readers, so they do not
share code with what they check.
"""
from __future__ import annotations

import contextlib
import io
import json
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import termembed as te
from termembed import cli

_now = time.perf_counter

# Tolerances of the output checks.
ANCHOR_TOL = 1e-9  # |‖f(u) - (Πx_k, 0)‖ - ‖u - x_k‖| <= ANCHOR_TOL * max(1, R)
WEIGHT_SUM_TOL = 1e-12
VIOLATION_TOL = 1e-12
GRAM_TOL = 1e-9  # slack for midpoint norms taken from Gram entries

# Parameters of the serve query families, as in the default eval suite.
SHELL_FACTORS = (0.01, 0.1, 1.0, 10.0)
FAR_SCALE = 3.0


@dataclass(frozen=True)
class Shape:
    n: int
    d: int
    epsilon: float
    C: float
    per_family: int = 0  # serve: queries per family
    per_mode: int = 0  # tight: eval --queries-per-mode (0 = the CLI default)
    samples: int = 0  # audit: verify-chd --samples
    instances: int = 1  # input instances per run, used in turn


SHAPES = {
    "serve": Shape(1200, 256, 0.25, 1.0, per_family=25, instances=4),
    "tight": Shape(600, 256, 0.25, 0.25, instances=8),
    "audit": Shape(64, 256, 0.5, 1.0, samples=20000),
}
# Tiny shapes for the smoke test; still on the sketch path (m < n).
SMOKE_SHAPES = {
    "serve": Shape(40, 16, 0.9, 0.25, per_family=2, instances=2),
    "tight": Shape(30, 16, 0.9, 0.25, per_mode=2, instances=2),
    "audit": Shape(8, 16, 0.9, 0.5, samples=200),
}


# ---------------------------------------------------------------------------
# inputs


def _unit_rows(rng, count, d):
    v = rng.standard_normal((count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def mixed_queries(rng, X: np.ndarray, per_family: int) -> np.ndarray:
    """per_family queries from each family of the default eval suite, in its
    order: box, segment, member, far, then shell_rel at each SHELL_FACTORS.
    Distances come from the Gram matrix, not the suite's O(n^2 d) broadcast."""
    n, d = X.shape
    norms = (X * X).sum(axis=1)
    sq = np.maximum(norms[:, None] + norms[None, :] - 2.0 * (X @ X.T), 0.0)
    np.fill_diagonal(sq, np.inf)
    nn = np.sqrt(sq.min(axis=1))
    np.fill_diagonal(sq, 0.0)
    diameter = float(np.sqrt(sq.max()))
    lo, hi = X.min(axis=0), X.max(axis=0)
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0

    i = rng.integers(0, n, per_family)
    j = (i + rng.integers(1, n, per_family)) % n
    lam = rng.uniform(size=(per_family, 1))
    chunks = [
        center - 2.0 * half + 4.0 * half * rng.uniform(size=(per_family, d)),
        lam * X[i] + (1.0 - lam) * X[j],
        X[rng.choice(n, per_family, replace=False)],
        X.mean(axis=0) + FAR_SCALE * diameter * _unit_rows(rng, per_family, d),
    ]
    for factor in SHELL_FACTORS:
        anchors = rng.integers(0, n, per_family)
        radii = factor * nn[anchors]
        chunks.append(X[anchors] + radii[:, None] * _unit_rows(rng, per_family, d))
    return np.vstack(chunks)


_TEPT = struct.Struct("<4sIII")  # magic, n, d, reserved; then row-major float64


def write_tept(path, arr) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_TEPT.pack(b"TEPT", arr.shape[0], arr.shape[1], 0))
        fh.write(arr.tobytes())


def read_tept(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, n, d, _ = _TEPT.unpack_from(raw)
    if magic != b"TEPT":
        raise ValueError(f"{path}: not a TEPT file")
    return np.frombuffer(raw, dtype="<f8", offset=_TEPT.size).reshape(n, d)


def write_csv(path, arr) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


# ---------------------------------------------------------------------------
# output checks (pure functions of the inputs and the program's outputs)


def check_images(X, images, queries, F) -> tuple[np.ndarray, float]:
    """Per-query pass/fail of shape, finiteness and anchor isometry, plus the
    worst |‖f(u) - img_i‖ / ‖u - x_i‖ - 1| over pairs at positive distance.

    X (n, d) terminals, images (n, out_dim) terminal images (Πx_i, 0),
    queries (Q, d), F (Q, out_dim) query images.
    """
    ok = np.zeros(queries.shape[0], dtype=bool)
    if F.shape != (queries.shape[0], images.shape[1]):
        return ok, float("inf")
    worst = 0.0
    for q, (u, f) in enumerate(zip(queries, F)):
        if not np.all(np.isfinite(f)):
            continue
        dist = np.sqrt(((X - u) ** 2).sum(axis=1))
        edist = np.sqrt(((images - f) ** 2).sum(axis=1))
        k = int(np.argmin(dist))
        R = float(dist[k])
        ok[q] = abs(edist[k] - R) <= ANCHOR_TOL * max(1.0, R)
        pos = dist > 0.0
        if np.any(pos):
            worst = max(worst, float(np.max(np.abs(edist[pos] / dist[pos] - 1.0))))
    return ok, worst


def terminal_images(bundle: Path) -> np.ndarray:
    emb = read_tept(bundle / "embedded.bin")
    return np.hstack([emb, np.zeros((emb.shape[0], 1))])


def sketch_entries(bundle: Path) -> np.ndarray:
    header = json.loads((bundle / "sketch.json").read_text(encoding="utf-8"))
    raw = np.fromfile(bundle / header["data"], dtype="<f8")
    return raw.reshape(int(header["m"]), int(header["d"]))


def directions(X: np.ndarray) -> np.ndarray:
    """All n(n-1) unit directions (x_i - x_j)/‖x_i - x_j‖, i != j, lexicographic."""
    i, j = np.where(~np.eye(X.shape[0], dtype=bool))
    diff = X[i] - X[j]
    return diff / np.linalg.norm(diff, axis=1, keepdims=True)


def worst_midpoint_violation(Y: np.ndarray, PY: np.ndarray, block: int = 256) -> float:
    """max over pairs a < b of |‖Π(y_a + y_b)/2‖ - ‖(y_a + y_b)/2‖|, from
    Gram blocks (‖a + b‖² = ‖a‖² + ‖b‖² + 2<a, b>) instead of the pairs."""
    sq, psq = (Y * Y).sum(axis=1), (PY * PY).sum(axis=1)
    cols = np.arange(Y.shape[0])
    worst = 0.0
    for lo in range(0, Y.shape[0] - 1, block):
        hi = min(lo + block, Y.shape[0])
        x = np.sqrt(np.maximum(sq[lo:hi, None] + sq + 2.0 * (Y[lo:hi] @ Y.T), 0.0))
        px = np.sqrt(np.maximum(psq[lo:hi, None] + psq + 2.0 * (PY[lo:hi] @ PY.T), 0.0))
        upper = cols[None, :] > cols[lo:hi, None]
        worst = max(worst, 0.5 * float(np.max(np.abs(px - x)[upper])))
    return worst


# ---------------------------------------------------------------------------
# workloads


class Tally:
    """Operations attempted and failed over a whole run. An operation is one
    CLI invocation or one library call; it fails on a non-zero exit or on any
    failed check of its output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


class Workload:
    """One input instance of a workload: its files, commands and checks.
    Instance ``index`` of a run draws everything from ``(seed, index)``."""

    name = ""
    terminal_suffix = ".bin"
    output_name = "report.json"

    def __init__(self, shape: Shape, seed: int, index: int, workdir: Path, tally: Tally):
        self.shape = shape
        self.dir = workdir
        self.tally = tally
        self.bundle = workdir / "bundle"
        self.points_path = workdir / f"terminals{self.terminal_suffix}"
        self.out_path = workdir / self.output_name
        self.quality: dict = {}
        self._reference: bytes | None = None
        workdir.mkdir(parents=True)
        rng = np.random.default_rng([seed, index])
        self.build_seed = int(rng.integers(2**31))
        self.X = rng.standard_normal((shape.n, shape.d))
        self.make_inputs(rng)

    def make_inputs(self, rng) -> None:
        write_tept(self.points_path, self.X)

    def cli(self, argv, tracer=None) -> tuple[int, str, float]:
        """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
        self.tally.attempted += 1
        buf = io.StringIO()
        t0 = _now()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        seconds = _now() - t0
        if code != 0:
            self.tally.fail(f"{argv[0]} exited {code}")
        return code, buf.getvalue(), seconds

    def build(self, tracer=None) -> float:
        argv = [
            "build", str(self.points_path), "--out", str(self.bundle),
            "--epsilon", repr(self.shape.epsilon), "--const-C", repr(self.shape.C),
            "--seed", str(self.build_seed),
        ]
        code, out, seconds = self.cli(argv, tracer)
        if code != 0:
            raise RuntimeError(f"build failed with exit {code}; nothing to measure")
        info = json.loads(out.strip().splitlines()[-1])
        if info.get("mode") != "sketch" or info.get("out_dim") != info.get("m", 0) + 1:
            self.tally.fail(f"build chose {info}, expected the sketch path")
        return seconds

    def command(self, tracer=None) -> float:
        """Run the workload's command once and check its output; returns seconds."""
        code, _, seconds = self.cli(self.command_argv(), tracer)
        if code == 0:
            output = self.out_path.read_bytes()
            if self._reference is None:
                self._reference = output
                problems = self.check_first()
            elif output != self._reference:
                problems = ["output differs from the first run on identical inputs"]
            else:
                problems = []
            if problems:
                self.tally.fail(f"{self.command_argv()[0]}: " + "; ".join(problems))
        return seconds

    def library_setup(self) -> None:
        """Build the library-path embedder (serve only)."""

    def library_pass(self) -> list[float]:
        """Per-call latencies of the workload's library loop (serve only)."""
        return []

    # per-workload hooks
    def command_argv(self) -> list[str]:
        raise NotImplementedError

    def check_first(self) -> list[str]:
        """Check the first output; record quality figures; return the problems."""
        raise NotImplementedError


class Serve(Workload):
    name = "serve"
    terminal_suffix = ".csv"
    output_name = "embedded.csv"

    def make_inputs(self, rng) -> None:
        write_csv(self.points_path, self.X)
        self.queries = mixed_queries(rng, self.X, self.shape.per_family)
        self.query_path = self.dir / "queries.csv"
        write_csv(self.query_path, self.queries)
        self.E = None
        self._lib_checked = False

    def command_argv(self):
        return ["query", str(self.bundle), str(self.query_path), str(self.out_path)]

    def check_first(self):
        F = read_csv(self.out_path)
        ok, worst = check_images(self.X, terminal_images(self.bundle), self.queries, F)
        self.quality["max_ratio_dev"] = worst
        return [] if ok.all() else [f"{int((~ok).sum())} of {ok.size} rows fail shape/finite/anchor checks"]

    def library_setup(self):
        """README library path to an embedder equal to the CLI bundle's."""
        X = te.build_point_set(self.X)
        plan = te.plan_dimension(X.n, self.shape.epsilon, self.shape.C)
        pi = te.generate_sketch(plan.m, X.d, "rademacher", te.derive_seed(self.build_seed, "sketch"))
        self.E = te.build_embedder(X, pi, self.shape.epsilon)

    def library_pass(self):
        E = self.E
        latencies = []
        outputs = np.empty((self.queries.shape[0], E.out_dim))
        for q, u in enumerate(self.queries):
            t0 = _now()
            outputs[q] = E.embed(u)
            latencies.append(_now() - t0)
        self.tally.attempted += len(latencies)
        if not self._lib_checked:
            self._lib_checked = True
            ok, _ = check_images(self.X, E.terminal_images, self.queries, outputs)
            if not ok.all():
                self.tally.fail(f"E.embed: {int((~ok).sum())} queries fail the anchor check", int((~ok).sum()))
        return latencies


class Tight(Workload):
    name = "tight"

    def command_argv(self):
        argv = ["eval", str(self.bundle), "--report", str(self.out_path)]
        if self.shape.per_mode:
            argv += ["--queries-per-mode", str(self.shape.per_mode)]
        return argv

    def check_first(self):
        rep = json.loads(self.out_path.read_text(encoding="utf-8"))
        self.quality["max_ratio_dev"] = float(rep["max_abs_ratio_dev"])
        self.quality["distortion"] = float(rep["distortion"])
        self.quality["pair_count"] = int(rep["pair_count"])
        problems = []
        if not rep["distortion"] >= 1.0:
            problems.append(f"distortion {rep['distortion']!r} < 1")
        if not rep["max_anchor_rel_error"] <= ANCHOR_TOL:
            problems.append(f"max_anchor_rel_error {rep['max_anchor_rel_error']!r} > {ANCHOR_TOL}")
        return problems


class Audit(Workload):
    name = "audit"

    def command_argv(self):
        return [
            "verify-chd", str(self.bundle), "--samples", str(self.shape.samples),
            "--report", str(self.out_path),
        ]

    def check_first(self):
        rep = json.loads(self.out_path.read_text(encoding="utf-8"))
        Y = directions(self.X)
        Pi = sketch_entries(self.bundle)
        w = np.asarray(rep["witness_weights"], dtype=np.float64)
        reported = float(rep["max_violation"])
        problems = []
        if w.shape != (Y.shape[0],) or np.any(w < 0.0) or abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            problems.append("witness weights are not a probability vector over Y")
        else:
            v = w @ Y
            recomputed = abs(float(np.linalg.norm(Pi @ v)) - float(np.linalg.norm(v)))
            if abs(recomputed - reported) > VIOLATION_TOL * max(1.0, reported):
                problems.append(f"max_violation {reported!r} != {recomputed!r} at the witness")
        # The audit evaluates every vertex and every pair midpoint, so it
        # finds at least their worst violation. Terminal images are the
        # build's output; their worst pair ratio is the worst vertex violation.
        images = terminal_images(self.bundle)
        i, j = np.where(~np.eye(self.X.shape[0], dtype=bool))
        ratio = np.linalg.norm(images[i] - images[j], axis=1) / np.linalg.norm(
            self.X[i] - self.X[j], axis=1
        )
        worst = float(np.max(np.abs(ratio - 1.0)))
        if reported < worst - VIOLATION_TOL:
            problems.append(f"max_violation {reported!r} below the worst vertex {worst!r}")
        midpoint = worst_midpoint_violation(Y, Y @ Pi.T)
        if reported < midpoint - GRAM_TOL:
            problems.append(f"max_violation {reported!r} below the worst pair midpoint {midpoint!r}")
        self.quality["max_ratio_dev"] = worst
        self.quality["chd_max_violation"] = reported
        return problems


WORKLOADS = {w.name: w for w in (Serve, Tight, Audit)}

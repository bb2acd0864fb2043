"""Empirical distortion measurement: query samplers, ratio statistics, and
scaling studies.

The supremum over all queries is not computable, so the sampler suite is
adversarially minded instead: uniform box fill, points on segments between
terminals, the terminals themselves, far-field queries, and shells around
terminals at several multiples of the local nearest-neighbor distance (the
tight cases live near the terminal set and along its chords).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chd import estimate_sampled
from .extension import SolverConfig, build_embedder
from .geometry import PointSet, direction_set
from .seeding import derive_seed
from .sketch import exact_small_embedding, generate_sketch, plan_dimension

HISTOGRAM_BINS = 64

# Shell radii for the default suite, as multiples of each anchor's
# nearest-neighbor distance.
DEFAULT_SHELL_FACTORS = (0.01, 0.1, 1.0, 10.0)
DEFAULT_FAR_SCALE = 3.0

BLOCK_ELEMENTS = 4 * 2**20  # float64 values per distance-block temporary (32 MB)


def _parse_mode(mode) -> tuple[str, float | None]:
    if isinstance(mode, tuple):
        kind, param = mode
        return str(kind), (None if param is None else float(param))
    text = str(mode)
    if ":" in text:
        kind, raw = text.split(":", 1)
        return kind, float(raw)
    return text, None


def _unit_rows(rng, count: int, d: int) -> np.ndarray:
    v = rng.standard_normal((count, d))
    norms = np.maximum(np.sqrt(np.einsum("ij,ij->i", v, v)), 1e-300)
    return v / norms[:, None]


def _distance_row_blocks(pts: np.ndarray):
    """Yield (start, dist): dist[a, j] = ||pts[start + a] - pts[j]|| for a
    block of rows, each entry from the same per-element einsum as a full
    (n, n, d) broadcast, with every temporary at most BLOCK_ELEMENTS long."""
    n, d = pts.shape
    rows = max(1, BLOCK_ELEMENTS // (n * d))
    for start in range(0, n, rows):
        diff = pts[start : start + rows, None, :] - pts[None, :, :]
        yield start, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _nearest_neighbor_dists(pts: np.ndarray) -> np.ndarray:
    n = pts.shape[0]
    if n == 1:
        return np.ones(1)
    nn = np.empty(n)
    for start, dist in _distance_row_blocks(pts):
        rows = np.arange(dist.shape[0])
        dist[rows, start + rows] = np.inf
        nn[start : start + dist.shape[0]] = dist.min(axis=1)
    return nn


def _diameter(pts: np.ndarray) -> float:
    return max(float(dist.max()) for _, dist in _distance_row_blocks(pts))


def sample_queries(X: PointSet, mode, count: int, seed: int = 0) -> np.ndarray:
    """Draw `count` query points in one of the sampler modes.

    Modes: "box" (uniform over the terminal bounding box inflated 2x),
    "shell:r" (terminal plus r times a random unit vector), "segment"
    (random convex combination of a random terminal pair), "member" (the
    terminals themselves, cycled), "far:s" (centroid plus s * diameter in a
    random direction), "shell_rel:f" (shell at f times the anchor's
    nearest-neighbor distance). Deterministic per seed.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    kind, param = _parse_mode(mode)
    pts = X.points
    n, d = X.n, X.d
    rng = np.random.default_rng(seed)

    if kind == "box":
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        return center - 2.0 * half + 4.0 * half * rng.uniform(size=(count, d))
    if kind == "member":
        return pts[np.arange(count) % n].copy()
    if kind == "segment":
        if n == 1:
            return np.repeat(pts, count, axis=0)
        i = rng.integers(0, n, size=count)
        j = (i + rng.integers(1, n, size=count)) % n
        lam = rng.uniform(size=count)[:, None]
        return lam * pts[i] + (1.0 - lam) * pts[j]
    if kind == "shell":
        if param is None:
            raise ValueError("shell mode needs a radius, e.g. shell:0.5")
        anchors = rng.integers(0, n, size=count)
        return pts[anchors] + param * _unit_rows(rng, count, d)
    if kind == "shell_rel":
        if param is None:
            raise ValueError("shell_rel mode needs a factor, e.g. shell_rel:0.1")
        nn = _nearest_neighbor_dists(pts)
        anchors = rng.integers(0, n, size=count)
        radii = param * nn[anchors]
        return pts[anchors] + radii[:, None] * _unit_rows(rng, count, d)
    if kind == "far":
        if param is None:
            raise ValueError("far mode needs a scale, e.g. far:3")
        centroid = pts.mean(axis=0)
        return centroid + param * _diameter(pts) * _unit_rows(rng, count, d)
    raise ValueError(f"unknown sampler mode {mode!r}")


def default_suite_modes() -> list[str]:
    modes = ["box", "segment", "member", f"far:{DEFAULT_FAR_SCALE}"]
    modes += [f"shell_rel:{f}" for f in DEFAULT_SHELL_FACTORS]
    return modes


def sample_suite(
    X: PointSet, count_per_mode: int, seed: int = 0, modes=None
) -> tuple[np.ndarray, list[str]]:
    """Concatenate every sampler mode into one labeled query batch."""
    modes = default_suite_modes() if modes is None else list(modes)
    chunks, labels = [], []
    for mode in modes:
        label = mode if isinstance(mode, str) else _parse_mode(mode)[0]
        chunks.append(sample_queries(X, mode, count_per_mode, derive_seed(seed, label)))
        labels += [label] * count_per_mode
    return np.vstack(chunks), labels


@dataclass
class DistortionReport:
    """Aggregated per-pair ratio statistics for one query batch."""

    query_count: int
    pair_count: int
    ratio_min: float
    ratio_max: float
    ratio_mean: float
    histogram_counts: list
    histogram_lo: float
    histogram_hi: float
    max_abs_ratio_dev: float
    distortion: float
    max_residual: float
    max_anchor_rel_error: float
    samplers: dict
    config: dict = field(default_factory=dict)
    # Raw per-pair arrays for the CSV dump; not part of the JSON report.
    raw_query_index: np.ndarray | None = None
    raw_point_index: np.ndarray | None = None
    raw_ratio: np.ndarray | None = None
    raw_sq_error: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "query_count": self.query_count,
            "pair_count": self.pair_count,
            "ratios": {
                "min": self.ratio_min,
                "max": self.ratio_max,
                "mean": self.ratio_mean,
                "histogram": {
                    "lo": self.histogram_lo,
                    "hi": self.histogram_hi,
                    "counts": self.histogram_counts,
                },
            },
            "max_abs_ratio_dev": self.max_abs_ratio_dev,
            "distortion": self.distortion,
            "max_residual": self.max_residual,
            "max_anchor_rel_error": self.max_anchor_rel_error,
            "samplers": self.samplers,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def evaluate(E, queries, labels=None, config_echo=None, keep_raw: bool = False) -> DistortionReport:
    """Embed every query and aggregate the distance ratios against all
    terminals at positive distance.

    E is anything with .X, .embed_batch(Q), and .terminal_images (the
    sketch-path embedder, the exact small-n embedding, or the snap-to-nearest
    baseline); max_residual is the largest solver residual among its
    per-query records.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    pts = E.X.points
    imgs = E.terminal_images
    images, per_query = E.embed_batch(queries)

    ratios, q_idx, p_idx, sq_err = [], [], [], []
    max_residual = max((rec["residual"] for rec in per_query), default=0.0)
    max_anchor_err = 0.0
    per_label: dict[str, list] = {}

    for qi, (u, fu) in enumerate(zip(queries, images)):
        diff = pts - u
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ediff = imgs - fu
        edists = np.sqrt(np.einsum("ij,ij->i", ediff, ediff))
        mask = dists > 0.0
        if not np.any(mask):
            continue
        r = edists[mask] / dists[mask]
        k = int(np.argmin(dists))
        if dists[k] > 0.0:
            max_anchor_err = max(max_anchor_err, abs(edists[k] - dists[k]) / dists[k])
        ratios.append(r)
        if keep_raw:
            idx = np.nonzero(mask)[0]
            q_idx.append(np.full(idx.shape[0], qi))
            p_idx.append(idx)
            sq_err.append(np.abs(edists[mask] ** 2 - dists[mask] ** 2))
        if labels is not None:
            per_label.setdefault(labels[qi], []).append(r)

    if ratios:
        allr = np.concatenate(ratios)
        lo, hi = float(allr.min()), float(allr.max())
        # A near-degenerate range (ratios identical to a few ulps) cannot be
        # split into 64 finite bins; collapse to one.
        if hi - lo > HISTOGRAM_BINS * np.spacing(max(abs(lo), abs(hi), 1.0)):
            counts = np.histogram(allr, bins=HISTOGRAM_BINS, range=(lo, hi))[0]
            hist = counts.astype(int).tolist()
        else:
            hist = [int(allr.size)]
        report = DistortionReport(
            query_count=int(queries.shape[0]),
            pair_count=int(allr.size),
            ratio_min=lo,
            ratio_max=hi,
            ratio_mean=float(allr.mean()),
            histogram_counts=hist,
            histogram_lo=lo,
            histogram_hi=hi,
            max_abs_ratio_dev=float(np.max(np.abs(allr - 1.0))),
            distortion=float(hi / lo),
            max_residual=float(max_residual),
            max_anchor_rel_error=float(max_anchor_err),
            samplers={
                lab: {
                    "count": int(sum(x.size for x in rs)),
                    "min": float(min(x.min() for x in rs)),
                    "max": float(max(x.max() for x in rs)),
                    "mean": float(np.concatenate(rs).mean()),
                }
                for lab, rs in sorted(per_label.items())
            },
            config=dict(config_echo or {}),
        )
        if keep_raw:
            report.raw_query_index = np.concatenate(q_idx)
            report.raw_point_index = np.concatenate(p_idx)
            report.raw_ratio = allr
            report.raw_sq_error = np.concatenate(sq_err)
        return report

    return DistortionReport(
        query_count=int(queries.shape[0]),
        pair_count=0,
        ratio_min=float("nan"),
        ratio_max=float("nan"),
        ratio_mean=float("nan"),
        histogram_counts=[],
        histogram_lo=float("nan"),
        histogram_hi=float("nan"),
        max_abs_ratio_dev=0.0,
        distortion=float("nan"),
        max_residual=float(max_residual),
        max_anchor_rel_error=float(max_anchor_err),
        samplers={},
        config=dict(config_echo or {}),
    )


def write_raw_csv(report: DistortionReport, path) -> None:
    """Per-pair dump: query_index, point_index, ratio, abs_sq_error."""
    if report.raw_ratio is None:
        raise ValueError("report was built without keep_raw=True")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query_index,point_index,ratio,abs_sq_error\n")
        for q, p, r, s in zip(
            report.raw_query_index,
            report.raw_point_index,
            report.raw_ratio,
            report.raw_sq_error,
        ):
            fh.write(f"{int(q)},{int(p)},{repr(float(r))},{repr(float(s))}\n")


def scaling_study(
    X: PointSet,
    epsilons,
    Cs,
    seeds,
    distribution: str = "rademacher",
    queries_per_mode: int = 10,
    chd_samples: int = 2000,
    solver: SolverConfig | None = None,
) -> list[dict]:
    """Full factorial (epsilon, C, seed) run.

    Each row reports the planned m and mode, the sampled hull-distortion
    estimate for the direction set (0 for the exact path, which is an
    isometry on it), and the measured worst ratio deviation over the default
    query suite.
    """
    if not epsilons or not Cs or not seeds:
        raise ValueError("epsilons, Cs, and seeds must be nonempty")
    rows = []
    for eps in epsilons:
        for C in Cs:
            plan = plan_dimension(X.n, eps, C)
            for seed in seeds:
                if plan.mode == "sketch":
                    pi = generate_sketch(
                        plan.m, X.d, distribution, derive_seed(seed, "sketch")
                    )
                    Y = direction_set(X)
                    chd_v = (
                        estimate_sampled(pi, Y, chd_samples, derive_seed(seed, "chd")).max_violation
                        if len(Y)
                        else 0.0
                    )
                    E = build_embedder(X, pi, eps, solver)
                else:
                    chd_v = 0.0
                    E = exact_small_embedding(X)
                queries, labels = sample_suite(
                    X, queries_per_mode, derive_seed(seed, "samplers")
                )
                rep = evaluate(E, queries, labels)
                rows.append(
                    {
                        "epsilon": float(eps),
                        "C": float(C),
                        "seed": int(seed),
                        "m": int(plan.m),
                        "mode": plan.mode,
                        "chd_max_violation": float(chd_v),
                        "max_ratio_dev": rep.max_abs_ratio_dev,
                    }
                )
    return rows


def scaling_table_csv(rows: list[dict]) -> str:
    cols = ["epsilon", "C", "seed", "m", "mode", "chd_max_violation", "max_ratio_dev"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"

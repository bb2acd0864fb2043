"""Empirical distortion measurement: query samplers, ratio statistics, and
scaling studies.

The supremum over all queries is not computable, so the sampler suite is
adversarially minded instead: uniform box fill, points on segments between
terminals, the terminals themselves, far-field queries, and shells around
terminals at several multiples of the local nearest-neighbor distance (the
tight cases live near the terminal set and along its chords).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chd import estimate_sampled
from .extension import SolverConfig, build_embedder, exact_small_embedding
from .geometry import PointSet, direction_set, distance_matrix
from .seeding import derive_seed
from .sketch import generate_sketch, plan_dimension

HISTOGRAM_BINS = 64

# Shell radii for the default suite, as multiples of each anchor's
# nearest-neighbor distance.
DEFAULT_SHELL_FACTORS = (0.01, 0.1, 1.0, 10.0)
DEFAULT_FAR_SCALE = 3.0


def parse_mode(mode: str) -> tuple[str, float | None]:
    """(kind, param) of a sampler mode string, "kind" or "kind:param".

    Raises ValueError for anything else: an unknown kind, a parameter given
    to box, member or segment, or one missing or not finite for shell,
    shell_rel or far."""
    kind, _, param = str(mode).partition(":")
    if kind in ("box", "member", "segment") and not param:
        return kind, None
    try:
        value = float(param) if kind in ("shell", "shell_rel", "far") else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"bad sampler mode {mode!r}; e.g. box, shell:0.5 or far:3")
    return kind, value


def _unit_rows(rng, count: int, d: int) -> np.ndarray:
    v = rng.standard_normal((count, d))
    norms = np.maximum(np.sqrt(np.einsum("ij,ij->i", v, v)), 1e-300)
    return v / norms[:, None]


def sample_queries(X: PointSet, mode, count: int, seed: int = 0) -> np.ndarray:
    """Draw `count` query points in one of the sampler modes.

    Modes: "box" (uniform over the terminal bounding box inflated 2x),
    "shell:r" (terminal plus r times a random unit vector), "segment"
    (random convex combination of a random terminal pair), "member" (the
    terminals themselves, cycled), "far:s" (centroid plus s * diameter in a
    random direction), "shell_rel:f" (shell at f times the anchor's
    nearest-neighbor distance). Deterministic per seed. The nearest-neighbor
    distances and the diameter come from X.neighbor_scales, computed once per
    point set and shared by every later call: a blocked Gram screen (O(n^2 d)
    GEMM flops) with exact distances only for the entries it cannot rule out,
    bit-identical to a full exact distance pass.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    kind, param = parse_mode(mode)
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
        anchors = rng.integers(0, n, size=count)
        return pts[anchors] + param * _unit_rows(rng, count, d)
    if kind == "shell_rel":
        nn = X.neighbor_scales[0]
        anchors = rng.integers(0, n, size=count)
        radii = param * nn[anchors]
        return pts[anchors] + radii[:, None] * _unit_rows(rng, count, d)
    # kind == "far"
    centroid = pts.mean(axis=0)
    return centroid + param * X.neighbor_scales[1] * _unit_rows(rng, count, d)


def default_suite_modes() -> list[str]:
    modes = ["box", "segment", "member", f"far:{DEFAULT_FAR_SCALE}"]
    modes += [f"shell_rel:{f}" for f in DEFAULT_SHELL_FACTORS]
    return modes


def mode_labels(modes) -> list[str]:
    """The label of each sampler mode: the mode string itself.

    Raises ValueError for a bad mode (see parse_mode) or two equal modes,
    which would share a sub-seed and merge in evaluate's statistics."""
    labels = []
    for mode in modes:
        parse_mode(mode)
        if mode in labels:
            raise ValueError(f"sampler mode {mode!r} is given twice")
        labels.append(mode)
    return labels


def sample_suite(
    X: PointSet, count_per_mode: int, seed: int = 0, modes=None
) -> tuple[np.ndarray, list[str]]:
    """Concatenate every sampler mode into one labeled query batch; each mode
    draws from the sub-seed of its label (see mode_labels)."""
    modes = default_suite_modes() if modes is None else modes
    chunks, labels = [], []
    for label in mode_labels(modes):
        chunks.append(sample_queries(X, label, count_per_mode, derive_seed(seed, label)))
        labels += [label] * count_per_mode
    return np.vstack(chunks), labels


@dataclass
class DistortionReport:
    """Aggregated per-pair ratio statistics for one query batch. Statistics
    undefined on an empty pair set are None (JSON null)."""

    query_count: int
    pair_count: int
    ratio_min: float | None
    ratio_max: float | None
    ratio_mean: float | None
    histogram_counts: list  # over [ratio_min, ratio_max]
    max_abs_ratio_dev: float
    distortion: float | None
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
                    "lo": self.ratio_min,
                    "hi": self.ratio_max,
                    "counts": self.histogram_counts,
                },
            },
            "max_abs_ratio_dev": self.max_abs_ratio_dev,
            "distortion": self.distortion,
            "max_residual": self.max_residual,
            "max_anchor_rel_error": self.max_anchor_rel_error,
            "samplers": self.samplers,
        }


def _ratio_stats(r: np.ndarray) -> dict:
    if r.size == 0:
        return {"count": 0, "min": None, "max": None, "mean": None}
    return {"count": int(r.size), "min": float(r.min()), "max": float(r.max()), "mean": float(r.mean())}


def _histogram(r: np.ndarray, lo, hi) -> list:
    if r.size == 0:
        return []
    # A near-degenerate range (ratios identical to a few ulps) cannot be
    # split into 64 finite bins; collapse to one.
    if hi - lo > HISTOGRAM_BINS * np.spacing(max(abs(lo), abs(hi), 1.0)):
        return np.histogram(r, bins=HISTOGRAM_BINS, range=(lo, hi))[0].astype(int).tolist()
    return [int(r.size)]


def evaluate(E, queries, labels=None, config_echo=None, keep_raw: bool = False) -> DistortionReport:
    """Embed every query and aggregate the distance ratios
    ||f(u) - f(x_i)|| / ||u - x_i|| against all terminals at positive distance.

    E is an extension.OuterExtension (the sketch-path embedder, the exact
    small-n embedding, or the snap-to-nearest baseline); max_residual is the
    largest solver residual among its per-query records. distortion is
    ratio_max / ratio_min, None (JSON null) when no pair is at positive
    distance or when some ratio is 0, as when a query's image coincides with
    a terminal's. Beyond embed_batch, the cost is one blocked distance
    pass of the q queries against X and one of their images against the
    terminal images: O(q n (d + out_dim)) time and O(q n) memory for the
    two ratio matrices. Pairs are taken in (query, terminal) row-major order.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    images, per_query = E.embed_batch(queries)
    dists = distance_matrix(queries, E.X.points)
    edists = distance_matrix(images, E.terminal_images)

    mask = dists > 0.0
    q_idx, p_idx = np.nonzero(mask)
    ratio = edists[mask] / dists[mask]
    nearest = (np.arange(dists.shape[0]), dists.argmin(axis=1))
    anchor, anchor_image = dists[nearest], edists[nearest]
    at = anchor > 0.0
    anchor_err = np.abs(anchor_image[at] - anchor[at]) / anchor[at]

    samplers = {}
    if labels is not None:
        names = sorted(set(labels))
        index = {lab: i for i, lab in enumerate(names)}
        pair_label = np.array([index[lab] for lab in labels], dtype=np.int64)[q_idx]
        for i, lab in enumerate(names):
            r = ratio[pair_label == i]
            if r.size:
                samplers[lab] = _ratio_stats(r)

    stats = _ratio_stats(ratio)
    lo, hi = stats["min"], stats["max"]
    raw = {}
    if keep_raw:
        raw = {
            "raw_query_index": q_idx,
            "raw_point_index": p_idx,
            "raw_ratio": ratio,
            "raw_sq_error": np.abs(edists[mask] ** 2 - dists[mask] ** 2),
        }
    return DistortionReport(
        query_count=int(queries.shape[0]),
        pair_count=stats["count"],
        ratio_min=lo,
        ratio_max=hi,
        ratio_mean=stats["mean"],
        histogram_counts=_histogram(ratio, lo, hi),
        max_abs_ratio_dev=float(np.max(np.abs(ratio - 1.0), initial=0.0)),
        distortion=hi / lo if lo else None,
        max_residual=float(max((rec["residual"] for rec in per_query), default=0.0)),
        max_anchor_rel_error=float(np.max(anchor_err, initial=0.0)),
        samplers=samplers,
        config=dict(config_echo or {}),
        **raw,
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
    Y = None  # depends on X only; built on the first sketch-mode row
    for eps in epsilons:
        for C in Cs:
            plan = plan_dimension(X.n, eps, C, X.d)
            for seed in seeds:
                if plan.mode == "sketch":
                    pi = generate_sketch(
                        plan.m, X.d, distribution, derive_seed(seed, "sketch")
                    )
                    if Y is None:
                        Y = direction_set(X)
                    chd_v = estimate_sampled(
                        pi, Y, chd_samples, derive_seed(seed, "chd")
                    ).max_violation
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

"""Empirical distortion measurement: query samplers and ratio statistics.

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

from .errors import NonFinitePoint
from .extension import STATUSES
from .geometry import (
    MIN_DISTANCE,
    PointSet,
    _gram_overflows,
    _gram_screen,
    _pair_distances,
    _screen_rows,
    distance_matrix,
)
from .seeding import derive_seed

HISTOGRAM_BINS = 64

# Shell radii for the default suite, as multiples of each anchor's
# nearest-neighbor distance.
DEFAULT_SHELL_FACTORS = (0.01, 0.1, 1.0, 10.0)
DEFAULT_FAR_SCALE = 3.0
# The least distance from a shell_rel or segment query to the terminal it is
# drawn around: twice the MIN_DISTANCE below which the embedders refuse a
# query that is not a terminal itself.
_NEAR = 2.0 * MIN_DISTANCE


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
    nearest-neighbor distance). A segment or nonzero shell_rel draw closer
    than 2 MIN_DISTANCE to its terminal, which the embedders would refuse
    (on data spaced near MIN_DISTANCE), is moved out to that distance, or
    to the midpoint of a segment shorter than twice it; other draws are
    unchanged. Deterministic per seed. The nearest-neighbor distances and
    the diameter come from X.neighbor_scales, computed once per point set
    and shared by every later call: a blocked Gram screen (O(n^2 d) GEMM
    flops) with exact distances only for the entries it cannot rule out,
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
        # lam * d_ij is the distance to x_j, (1 - lam) * d_ij to x_i.
        with np.errstate(divide="ignore"):
            t = np.minimum(_NEAR / _pair_distances(pts, pts, i, j), 0.5)
        lam = np.clip(rng.uniform(size=count), t, 1.0 - t)[:, None]
        return lam * pts[i] + (1.0 - lam) * pts[j]
    if kind == "shell":
        anchors = rng.integers(0, n, size=count)
        return pts[anchors] + param * _unit_rows(rng, count, d)
    if kind == "shell_rel":
        nn = X.neighbor_scales[0]
        anchors = rng.integers(0, n, size=count)
        radii = param * nn[anchors]
        if param:
            radii = np.copysign(np.maximum(np.abs(radii), _NEAR), param)
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
    status_counts: dict  # per-query solve statuses: feasible, infeasible, undecided
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
            "status_counts": self.status_counts,
            "max_anchor_rel_error": self.max_anchor_rel_error,
            "samplers": self.samplers,
        }


def _ratio_stats(r: np.ndarray, lo, hi) -> dict:
    """count, min, max and mean of the ratios r, whose exact min and max are
    lo and hi."""
    if r.size == 0:
        return {"count": 0, "min": None, "max": None, "mean": None}
    return {"count": int(r.size), "min": float(lo), "max": float(hi), "mean": float(r.mean())}


def _binned(lo, hi) -> bool:
    """Whether [lo, hi] splits into HISTOGRAM_BINS finite bins. A
    near-degenerate range (ratios identical to a few ulps) collapses to one."""
    return hi - lo > HISTOGRAM_BINS * np.spacing(max(abs(lo), abs(hi), 1.0))


def _histogram(r: np.ndarray, edges) -> list:
    """Counts of the ratios r per bin of edges (the rule of _bin_index), or
    one count when edges is None (a range too narrow to bin)."""
    if r.size == 0:
        return []
    if edges is None:
        return [int(r.size)]
    return np.bincount(_bin_index(r, edges), minlength=HISTOGRAM_BINS).tolist()


def _bin_index(r: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The np.histogram bin of each value of r in [edges[0], edges[-1]] over
    HISTOGRAM_BINS uniform bins, max {i < HISTOGRAM_BINS : edges[i] <= r}:
    the arithmetic estimate, corrected by one edge comparison each way, as
    np.histogram computes it. The one binning rule: _histogram counts by
    it, and settle_bins settles the intervals it could misplace."""
    k = ((r - edges[0]) / (edges[-1] - edges[0]) * HISTOGRAM_BINS).astype(np.intp)
    np.minimum(k, HISTOGRAM_BINS - 1, out=k)
    k -= r < edges[k]
    k += (r >= edges[k + 1]) & (k < HISTOGRAM_BINS - 1)
    return k


# Relative widening of a screened ratio interval: it covers the rounding of
# the interval's square roots, quotient and widening, and of the exact ratio's
# quotient.
_RATIO_SLACK = 4.0 * float(np.finfo(np.float64).eps)


class _PairRatios:
    """Ratio intervals ||f(u) - f(x_i)|| / ||u - x_i|| of q queries against
    n terminals, as two (q, n) arrays lo <= hi: equal to the exact ratio
    where an entry was recomputed, NaN where the exact distance is 0 (no
    pair). sq_error (kept only for the raw dump) holds |e^2 - d^2|, exact
    where recomputed and from the screen's midpoints elsewhere.
    anchor_error is the largest |e_k - d_k| / d_k over the queries whose
    anchor k (anchors[i], an intp array) is at positive distance. See
    evaluate for the rules."""

    def __init__(self, queries, points, images, terminal_images, anchors, keep_raw: bool):
        self.pairs = (queries, points, images, terminal_images)
        self.lo, self.hi = np.empty((2, queries.shape[0], points.shape[0]))
        self.sq_error = np.empty(self.lo.shape) if keep_raw else None
        if not self._screen():
            self._exact()
        # Recompute each anchor pair but those at distance 0, which are exact
        # already (NaN) and have no error.
        rows = np.flatnonzero(~np.isnan(self.lo[np.arange(anchors.size), anchors]))
        self.anchor_error = 0.0
        if rows.size:  # an empty query file has width 0
            d, e = self._distances(rows, anchors[rows])
            self._set_exact(rows, anchors[rows], d, e)
            self.anchor_error = float(np.max(np.abs(e - d) / d))

    def extremes(self, group: np.ndarray, groups: int):
        """(min, max) arrays of the exact ratios of each group of queries
        (group[i] is query i's group), NaN for a group with no pair. First
        recomputes every entry whose interval could hold one of them."""
        lo, hi = self.lo, self.hi
        low, high = self._bounds(group, groups)
        self._settle((lo < hi) & ((lo <= low[group, None]) | (hi >= high[group, None])))
        return self._bounds(group, groups)

    def settle_bins(self, edges: np.ndarray) -> None:
        """Recompute every open interval that holds one of the histogram's
        edges. After extremes, an open interval lies inside (edges[0],
        edges[-1]); one that reaches no edge past its lower end's bin puts
        its midpoint in the exact ratio's bin."""
        cand = self.lo < self.hi
        cand[cand] = self.hi[cand] >= edges[_bin_index(self.lo[cand], edges) + 1]
        self._settle(cand)

    def ratios(self):
        """(mask, ratio): the (q, n) pair mask, and the intervals' midpoints
        over it in row-major order (the exact ratio where recomputed). Call
        last: the midpoints overwrite hi."""
        lo, mid = self.lo, self.hi
        mid -= lo
        mid *= 0.5
        mid += lo  # lo + (hi - lo) / 2 is lo itself where lo == hi
        mask = ~np.isnan(lo)
        return mask, mid[mask]

    def _bounds(self, group, groups):
        # Per group, the min of hi and the max of lo: bounds on the exact
        # extremes, equal to them once every entry that could hold one is
        # exact.
        row_min = np.fmin.reduce(self.hi, axis=1, initial=np.nan)
        row_max = np.fmax.reduce(self.lo, axis=1, initial=np.nan)
        members = [group == g for g in range(groups)]
        return (
            np.array([np.fmin.reduce(row_min[m], initial=np.nan) for m in members]),
            np.array([np.fmax.reduce(row_max[m], initial=np.nan) for m in members]),
        )

    def _settle(self, cand: np.ndarray) -> None:
        a, j = np.nonzero(cand)
        if 2 * a.size > cand.size:
            # As when every ratio is 1 to a few ulps (the exact path): the
            # blocked passes beat gathering the pairs.
            self._exact()
        elif a.size:  # an empty query file has width 0
            self._set_exact(a, j, *self._distances(a, j))

    def _distances(self, a, j):
        Q, P, F, T = self.pairs
        return _pair_distances(Q, P, a, j), _pair_distances(F, T, a, j)

    def _set_exact(self, a, j, d, e) -> None:
        self.lo[a, j] = self.hi[a, j] = np.divide(e, d, out=np.full(d.shape, np.nan), where=d > 0.0)
        if self.sq_error is not None:
            self.sq_error[a, j] = np.abs(e**2 - d**2)

    def _exact(self) -> None:
        Q, P, F, T = self.pairs
        self._set_exact(slice(None), slice(None), distance_matrix(Q, P), distance_matrix(F, T))

    def _screen(self) -> bool:
        """Fill the table from the two Gram screens, blocked by query rows,
        recomputing the entries that decide the pair mask. False where the
        image screen could overflow or a block would recompute more than
        half its entries; the exact passes then fill everything."""
        Q, P, F, T = self.pairs
        if Q.shape[0] == 0:
            return False
        sq = [np.einsum("ij,ij->i", A, A) for A in self.pairs]
        if _gram_overflows(sq[2], sq[3]):
            return False
        rows = np.arange(Q.shape[0])
        step = _screen_rows(P.shape[0], Q.shape[1], F.shape[1])
        screens = zip(
            _gram_screen(Q, sq[0], P, sq[1], rows, step), _gram_screen(F, sq[2], T, sq[3], rows, step)
        )
        for (block, lo_d, hi_d), (_, lo_e, hi_e) in screens:
            redo = lo_d <= hi_d - lo_d  # D could be at most 2 b_d, or 0
            if 2 * np.count_nonzero(redo) > redo.size:
                return False
            out = slice(block[0], block[0] + block.size)
            if self.sq_error is not None:
                np.abs((lo_e + hi_e) / 2.0 - (lo_d + hi_d) / 2.0, out=self.sq_error[out])
            # sqrt of the e^2 bounds over sqrt of the d^2 bounds. Entries with
            # lo_d <= 0 are in redo, and overwritten below.
            for v in (lo_d, lo_e):
                np.maximum(v, 0.0, out=v)
            for v in (lo_d, hi_d, lo_e, hi_e):
                np.sqrt(v, out=v)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(lo_e, hi_d, out=self.lo[out])
                np.divide(hi_e, lo_d, out=self.hi[out])
            self.lo[out] *= 1.0 - _RATIO_SLACK
            self.hi[out] *= 1.0 + _RATIO_SLACK
            a, j = np.nonzero(redo)
            self._set_exact(block[a], j, *self._distances(block[a], j))
        return True


def evaluate(E, queries, labels=None, config_echo=None, keep_raw: bool = False) -> DistortionReport:
    """Embed every query and aggregate the distance ratios
    ||f(u) - f(x_i)|| / ||u - x_i|| against all terminals at positive distance.

    E is an extension.OuterExtension (the sketch-path embedder, the exact
    small-n embedding, or the snap-to-nearest baseline); max_residual is the
    largest solver residual among its per-query records, and status_counts
    counts their statuses (extension.STATUSES), so a max_residual certified
    out of reach, a property of the sketch, reads apart from a solve that
    ran out of iterations. The paths without a solve count every query
    feasible. max_anchor_rel_error is the largest |e_k - d_k| / d_k over
    the queries at positive distance d_k from their anchor k, the
    anchor_index of their record (e_k the image distance). distortion is
    ratio_max / ratio_min, None (JSON null) when no pair is at positive
    distance or when some ratio is 0, as when a query's image coincides with
    a terminal's. Pairs are taken in (query, terminal) row-major order.

    Cost. Beyond embed_batch, two Gram screens (geometry._gram_screen): the
    q queries against X and their images against the terminal images, one
    GEMM each per block of query rows, O(q n (d + out_dim)) flops. Memory is
    two (q, n) ratio arrays (three with keep_raw) plus block temporaries of
    about BLOCK_ELEMENTS / 8 values each. Each screened squared distance s
    is within b = geometry._gram_bound(dim, ||a||, ||b||) of the exact
    kernel's, so each ratio lies in [sqrt(s_e - b_e) / sqrt(s_d + b_d),
    sqrt(s_e + b_e) / sqrt(s_d - b_d)], widened by 4 eps. A pair is
    recomputed with the exact kernel (bit-identical to distance_matrix) when
      - s_d - b_d <= 2 b_d, which decides pair_count: every pair with exact
        squared distance D <= 2 b_d is exact;
      - it is its query's anchor, read from the query's record;
      - its interval could hold the minimum or the maximum ratio, overall or
        of its sampler label;
      - its interval holds one of the 65 histogram bin edges.
    On Gaussian data that is about one pair per query. Where an image square
    could overflow (geometry.MAX_NORM bounds the queries and points only), or
    one of these steps would recompute more than half the pairs it looks at
    (a block of the screen, on data far from the origin against its spread;
    the extremes, when every ratio is 1 to a few ulps as on the exact path),
    it takes two exact blocked distance passes instead, and every value is
    exact.

    Exact keys. query_count, pair_count, ratios.min, ratios.max, the
    histogram, max_abs_ratio_dev, distortion, max_residual, status_counts,
    max_anchor_rel_error, and each sampler's count, min and max are
    bit-identical to those of the exact passes. ratios.mean and
    samplers.*.mean average the intervals' midpoints (the exact ratio where
    recomputed). A screened pair has D > 2 b_d, and its midpoint is within

        w = sqrt(E + 2 b_e) / sqrt(D - 2 b_d) - sqrt(max(E - 2 b_e, 0)) / sqrt(D + 2 b_d)

    of its exact ratio r, up to 8 eps r, with E the exact squared image
    distance: about r (b_d / D + b_e / E), near 1e-13 r on the tight
    workload. So each mean is within the largest w of the exact mean, plus
    the rounding of the two sums, each at most (log2 N + 16) eps ratio_max
    over N pairs.

    keep_raw keeps the per-pair arrays of the --raw-dump CSV: query index,
    terminal index, ratio and |e^2 - d^2|. The last two are exact for
    recomputed pairs; for a screened pair they are the midpoint above and
    |s_e - s_d|, within w and b_d + b_e of the exact values.

    A query that embed_batch refuses (NonFinitePoint: a non-finite
    coordinate or a norm above geometry.MAX_NORM) raises NonFinitePoint
    again with its row's label appended, so a sampled suite that reaches
    past the bound names the sampler that drew the row.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    try:
        images, per_query = E.embed_batch(queries)
    except NonFinitePoint as exc:
        if labels is None or exc.row is None:
            raise
        raise NonFinitePoint(f"{exc}; its sampler label is {labels[exc.row]}", exc.row) from None
    anchors = np.array([rec["anchor_index"] for rec in per_query], dtype=np.intp)
    table = _PairRatios(queries, E.X.points, images, E.terminal_images, anchors, keep_raw)
    row_labels = [None] * len(queries) if labels is None else labels
    names = sorted(set(row_labels))
    index = {lab: i for i, lab in enumerate(names)}
    group = np.array([index[lab] for lab in row_labels], dtype=np.int64)
    label_min, label_max = table.extremes(group, len(names))
    ratio_min = float(np.fmin.reduce(label_min, initial=np.nan))
    ratio_max = float(np.fmax.reduce(label_max, initial=np.nan))
    edges = None
    if _binned(ratio_min, ratio_max):
        edges = np.histogram_bin_edges(np.empty(0), HISTOGRAM_BINS, (ratio_min, ratio_max))
        table.settle_bins(edges)
    mask, ratio = table.ratios()

    samplers = {}
    if labels is not None:
        pair_label = np.repeat(group, mask.sum(axis=1))
        for i, lab in enumerate(names):
            r = ratio[pair_label == i]
            if r.size:
                samplers[lab] = _ratio_stats(r, label_min[i], label_max[i])

    stats = _ratio_stats(ratio, ratio_min, ratio_max)
    lo, hi = stats["min"], stats["max"]
    raw = {}
    if keep_raw:
        q_idx, p_idx = np.nonzero(mask)
        raw = {
            "raw_query_index": q_idx,
            "raw_point_index": p_idx,
            "raw_ratio": ratio,
            "raw_sq_error": table.sq_error[mask],
        }
    return DistortionReport(
        query_count=int(queries.shape[0]),
        pair_count=stats["count"],
        ratio_min=lo,
        ratio_max=hi,
        ratio_mean=stats["mean"],
        histogram_counts=_histogram(ratio, edges),
        max_abs_ratio_dev=max(abs(lo - 1.0), abs(hi - 1.0)) if ratio.size else 0.0,
        distortion=hi / lo if lo else None,
        max_residual=float(max((rec["residual"] for rec in per_query), default=0.0)),
        status_counts={s: sum(rec["status"] == s for rec in per_query) for s in STATUSES},
        max_anchor_rel_error=table.anchor_error,
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


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
    one count when edges is None (a range too narrow to bin); binned one
    block of _row_blocks at a time."""
    if r.size == 0:
        return []
    if edges is None:
        return [int(r.size)]
    counts = np.zeros(HISTOGRAM_BINS, dtype=np.intp)
    for block in _row_blocks(r.size, 1):
        counts += np.bincount(_bin_index(r[block], edges), minlength=HISTOGRAM_BINS)
    return counts.tolist()


def _row_blocks(rows: int, row_values: int) -> list[slice]:
    """Consecutive slices over `rows` rows of row_values values each, each
    slice at most geometry.BLOCK_ELEMENTS / 8 values (at least one row), so
    the few temporaries a pass makes per block stay within BLOCK_ELEMENTS
    together: the blocks of every pass of evaluate over its (q, n) table or
    its pairs, by the Gram screens' rule (geometry._screen_rows)."""
    step = _screen_rows(1, row_values)
    return [slice(start, start + step) for start in range(0, rows, step)]


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
    n terminals, as two (q, n) arrays lo <= hi, each its own allocation:
    equal to the exact ratio where an entry was recomputed, NaN where the
    exact distance is 0 (no pair). sq_error (kept only for the raw dump)
    holds |e^2 - d^2|, exact where recomputed and from the screen's
    midpoints elsewhere. anchor_error is the largest |e_k - d_k| / d_k over
    the queries whose anchor k (anchors[i], an intp array) is at positive
    distance. Every pass beyond these arrays works one block of
    _row_blocks at a time. See evaluate for the rules."""

    def __init__(self, queries, points, images, terminal_images, anchors, keep_raw: bool):
        self.pairs = (queries, points, images, terminal_images)
        shape = (queries.shape[0], points.shape[0])
        self.lo, self.hi = np.empty(shape), np.empty(shape)
        self.sq_error = np.empty(shape) if keep_raw else None
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
        low, high = self._bounds(group, groups)
        low, high = low[group, None], high[group, None]

        def cand(rows):
            lo, hi = self.lo[rows], self.hi[rows]
            return (lo < hi) & ((lo <= low[rows]) | (hi >= high[rows]))

        self._settle(cand)
        return self._bounds(group, groups)

    def settle_bins(self, edges: np.ndarray) -> None:
        """Recompute every open interval that holds one of the histogram's
        edges. After extremes, an open interval lies inside (edges[0],
        edges[-1]); one that reaches no edge past its lower end's bin puts
        its midpoint in the exact ratio's bin."""

        def cand(rows):
            lo, hi = self.lo[rows], self.hi[rows]
            out = lo < hi
            out[out] = hi[out] >= edges[_bin_index(lo[out], edges) + 1]
            return out

        self._settle(cand)

    def ratios(self):
        """(counts, ratio, raw): the number of pairs of each query, the
        intervals' midpoints over the pairs in row-major order (the exact
        ratio where recomputed), and with keep_raw the raw_* fields of
        DistortionReport (else {}). Call last: it frees lo before ratio is
        allocated, and hi and sq_error once the pairs are copied out."""
        mid = self.hi
        mid -= self.lo
        mid *= 0.5
        mid += self.lo  # lo + (hi - lo) / 2 is lo itself where lo == hi
        self.lo = None  # mid is NaN exactly where lo is: no pair
        blocks = _row_blocks(*mid.shape)
        counts = np.empty(mid.shape[0], dtype=np.intp)
        for rows in blocks:
            counts[rows] = mid.shape[1] - np.count_nonzero(np.isnan(mid[rows]), axis=1)
        ratio = np.empty(int(counts.sum()))
        keep_raw = self.sq_error is not None
        if keep_raw:
            q_idx, p_idx = np.empty(ratio.size, dtype=np.intp), np.empty(ratio.size, dtype=np.intp)
        end = 0
        for rows in blocks:
            pairs = ~np.isnan(mid[rows])
            start, end = end, end + np.count_nonzero(pairs)
            ratio[start:end] = mid[rows][pairs]
            if keep_raw:
                a, j = np.nonzero(pairs)
                q_idx[start:end], p_idx[start:end] = a + rows.start, j
        self.hi = mid = None
        if not keep_raw:
            return counts, ratio, {}
        raw = {
            "raw_query_index": q_idx,
            "raw_point_index": p_idx,
            "raw_ratio": ratio,
            "raw_sq_error": self.sq_error[q_idx, p_idx],
        }
        self.sq_error = None
        return counts, ratio, raw

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

    def _settle(self, cand) -> None:
        """Recompute the entries where cand(rows), the bool block of a row
        slice, is True; cand of a block reads only that block's rows. They
        are recomputed pair by pair, block by block, unless they are more
        than half the table (as when every ratio is 1 to a few ulps, on the
        exact path): the exact passes then beat gathering the pairs."""
        blocks = _row_blocks(*self.lo.shape)
        count = sum(np.count_nonzero(cand(rows)) for rows in blocks)
        if 2 * count > self.lo.size:
            self._exact()
        elif count:
            for rows in blocks:
                a, j = np.nonzero(cand(rows))
                a += rows.start
                self._set_exact(a, j, *self._distances(a, j))

    def _distances(self, a, j):
        Q, P, F, T = self.pairs
        return _pair_distances(Q, P, a, j), _pair_distances(F, T, a, j)

    def _set_exact(self, a, j, d, e) -> None:
        self.lo[a, j] = self.hi[a, j] = np.divide(e, d, out=np.full(d.shape, np.nan), where=d > 0.0)
        if self.sq_error is not None:
            self.sq_error[a, j] = np.abs(e**2 - d**2)

    def _exact(self) -> None:
        """Fill the table from the exact kernel, one block of query rows at a
        time: each block's kernel temporaries hold at most BLOCK_ELEMENTS / 8
        values, unless one row needs more."""
        Q, P, F, T = self.pairs
        for rows in _row_blocks(Q.shape[0], P.shape[0] * max(Q.shape[1], F.shape[1])):
            self._set_exact(rows, slice(None), distance_matrix(Q[rows], P), distance_matrix(F[rows], T))

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
    the two (q, n) interval arrays lo and hi (and sq_error with keep_raw)
    plus temporaries of at most about BLOCK_ELEMENTS / 8 values each, about
    BLOCK_ELEMENTS together: the screens, the recomputes, the histogram
    binning and the exact passes each work one block of query rows (or of
    pairs, _row_blocks) at a time. The pairs' midpoint ratios (at most q n
    values) take lo's place, and each sampler's ratios are gathered from
    them, so the peak is about two (q, n) tables; with keep_raw the
    report's four per-pair arrays are made before hi and sq_error are
    freed, five at most. Each screened squared distance s
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
    it takes the two exact distance passes instead, one block of query rows
    at a time, and every value is exact.

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
    counts, ratio, raw = table.ratios()

    samplers = {}
    if labels is not None:
        for i, lab in enumerate(names):
            r = ratio[np.repeat(group == i, counts)]
            if r.size:
                samplers[lab] = _ratio_stats(r, label_min[i], label_max[i])

    stats = _ratio_stats(ratio, ratio_min, ratio_max)
    lo, hi = stats["min"], stats["max"]
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


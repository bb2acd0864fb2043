"""Convex-hull distortion estimator.

A sketch Pi has eps-convex-hull distortion over a direction set T when
| ||Pi x|| - ||x|| | <= eps for every x in conv(T). No efficient exact
certifier exists at scale, so estimate_sampled, the estimator behind
verify-chd and scaling, takes a max over explicitly evaluated hull points:
every vertex, every pair midpoint, and a Monte Carlo sample on sparse
supports. It never exceeds the true supremum. The tests sandwich it between
an exhaustive simplex grid and its Lipschitz window on tiny instances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, TooManyDirections
from .geometry import DirectionSet
from .sketch import SketchMatrix

# estimate_sampled's budget for the direction set of n points in R^d under
# an m-row sketch, which check_audit_size enforces before verify-chd or
# scaling builds the set: its n(n-1) directions and their images hold
# n(n-1)(d+m) float64 values, and its midpoint tier evaluates
# (n(n-1)/2)^2 pair midpoints, in time that grows as n^4. The limits keep
# one audit to tens of seconds and under 1 GB. The midpoint count caps n
# at 256: at n = 256, d = 256 (m = 45, 151 MB of directions and images) a
# 20,000-sample verify-chd took 19-21 s and peaked at 333 MB RSS on one
# core of a 2-core x86 VM with one BLAS thread ("budget_edge" in
# BENCH_30.json).
# The bytes bind first where d + m exceeds about 510 (n <= 90 at d = 4096).
# The serve shape (n = 1200, d = 256, m = 227) needs 5.6 GB and 5.2e11
# midpoints.
MAX_DIRECTION_BYTES = 2**28
MAX_MIDPOINTS = 2**30

# A fixed chunk size keeps the rng consumption order, and therefore every
# estimate, reproducible for a given seed.
_CHUNK_SPARSE = 512
# Row sub-block for the random tier's direct recompute: bounds the
# (rows, s, d) gather temporary without changing any result.
_GATHER_ROWS = 64
# Rows per Gram block in the pair-midpoint tier. A block holds a few
# (_MIDPOINT_BLOCK x |T|) float arrays, with |T|/2 columns over one sign of a
# DirectionSet, and its product with the n basis points: small enough to
# stay in cache.
_MIDPOINT_BLOCK = 64
# Pairs per batch when the midpoint tier recomputes entries directly.
_MIDPOINT_DIRECT = 4096
# A midpoint is recomputed directly when ||a+b||^2 (or ||Pi(a+b)||^2) falls
# to this fraction of ||a||^2 + ||b||^2, where the Gram identity cancels.
_CANCEL = 1e-6


@dataclass(frozen=True)
class HullPoint:
    """A point of conv(T) with its simplex weights."""

    weights: np.ndarray  # (|T|,) nonnegative, sums to 1
    vector: np.ndarray  # (d,) the weighted combination

    def __post_init__(self):
        self.weights.setflags(write=False)
        self.vector.setflags(write=False)
        if self.weights.size and float(self.weights.min()) < 0.0:
            raise ValueError("hull weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("hull weights must sum to 1 within 1e-12")


@dataclass(frozen=True)
class ChdEstimate:
    """Result of estimate_sampled: the largest violation found, the hull
    point holding it, witness_tier (the tier whose chunk held the witness)
    and tier_max (each tier's largest stream value, keyed "vertex",
    "midpoint", "random"; a tier with no points is left out)."""

    max_violation: float
    witness: HullPoint
    witness_tier: str
    tier_max: dict


def _as_direction_matrix(T, d: int | None = None) -> np.ndarray:
    """The (|T|, d) matrix of a DirectionSet or array-like T; d=None skips
    the width check."""
    mat = T.directions if isinstance(T, DirectionSet) else np.asarray(T, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"direction set must be 2-D, got ndim={mat.ndim}")
    if mat.shape[0] == 0:
        raise ValueError("direction set is empty")
    if d is not None and mat.shape[1] != d:
        raise DimensionMismatch(
            f"directions have dimension {mat.shape[1]}, sketch expects {d}"
        )
    return mat


def check_audit_size(n: int, d: int, m: int) -> None:
    """Raise TooManyDirections, allocating nothing, unless the direction
    set of n points in R^d and its images under an m-row sketch fit
    MAX_DIRECTION_BYTES and its pair midpoints fit MAX_MIDPOINTS."""
    k = n * (n - 1)
    size = k * (d + m) * 8
    midpoints = (k // 2) ** 2
    if size > MAX_DIRECTION_BYTES or midpoints > MAX_MIDPOINTS:
        raise TooManyDirections(
            f"the audit of n={n} points (d={d}, m={m}) would hold {k} directions "
            f"and their images, {size / 2**20:.1f} MiB, and {midpoints} pair "
            f"midpoints; the budget is {MAX_DIRECTION_BYTES / 2**20:.0f} MiB and "
            f"{MAX_MIDPOINTS} midpoints"
        )


def make_hull_point(T, weights) -> HullPoint:
    """Build a validated HullPoint from simplex weights over T."""
    mat = _as_direction_matrix(T)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != mat.shape[0]:
        raise DimensionMismatch(
            f"{w.shape[0]} weights for {mat.shape[0]} directions"
        )
    return HullPoint(weights=w, vector=w @ mat)


def violation(pi: SketchMatrix, p) -> float:
    """| ||Pi v|| - ||v|| | at a hull point (or raw vector) v."""
    v = p.vector if isinstance(p, HullPoint) else np.asarray(p, dtype=np.float64)
    if v.shape[0] != pi.d:
        raise DimensionMismatch(f"vector has dimension {v.shape[0]}, expected {pi.d}")
    return float(_norm_gap(v[None], (pi.entries @ v)[None])[0])


def _norm_gap(x: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Row-wise | ||px|| - ||x|| |: the violation formula every tier shares."""
    return np.abs(
        np.sqrt(np.einsum("ij,ij->i", px, px))
        - np.sqrt(np.einsum("ij,ij->i", x, x))
    )


def _violation_stream(pi: SketchMatrix, T, samples: int, seed: int):
    """Yield (violations, weight_builder) chunks over the sampled population.

    The population is: every vertex of T, every pair midpoint, then `samples`
    random hull points split evenly (the first sizes take the remainder)
    over support sizes min(s, |T|), s in 2, 3, ceil(sqrt(|T|)), duplicates
    dropped: Dirichlet(1) weights on s directions drawn with replacement.
    Extreme violations concentrate near low-dimensional faces; full-support
    draws sit near the centroid, 0 when T = -T. weight_builder(i)
    reconstructs the full simplex weights of row i of its chunk.

    Chunk layout (a contract: perfbench splits the tiers by it): one vertex
    chunk of length |T|; then exactly |T| - 1 midpoint chunks; then the
    random chunks. Chunk sizes and rng consumption order are fixed, so the
    stream is deterministic per seed. The midpoint chunks depend on T:
      - an array T (the per-pair reference): chunk i holds (t_i + t_j)/2
        for j > i, so it has length |T| - 1 - i;
      - a DirectionSet, with y_p the p-th of its h = |T|/2 rows t_ij,
        i < j (its half): for each p, the minus chunk (y_p - y_q)/2 for
        q >= p (length h - p), then, for p < h - 1, the plus chunk
        (y_p + y_q)/2 for q > p (length h - 1 - p). The midpoints (a+b)/2
        and (-a-b)/2 have equal violations, so each such mirror pair is
        evaluated once: h^2 midpoints in h + (h - 1) = |T| - 1 chunks, where
        the layout above has h (2h - 1). A row's weights name the member of
        its mirror pair that comes first in that layout's order, so the
        witness is the per-pair scan's unless midpoints of two different
        mirror pairs tie exactly at the max.

    The midpoint tier takes its norms from Gram blocks in the random tier's
    basis (see _midpoint_violations): each block of rows is multiplied by
    the n basis points over the d coordinates (the points
    of a DirectionSet; an array is its own basis, n = |T|), then gathered at
    each column's q ends. That is O(|T| n d) in BLAS, plus O(|T|^2 (q + m))
    for the gathers and the images, a quarter of it over one sign for a
    DirectionSet. Memory is O(|T| (q + m) + _MIDPOINT_BLOCK (|T| + n))
    beyond T, its images and the basis.
    Each midpoint chunk's max, and the first index holding it, are
    bit-identical to the direct formula 0.5 * (t_a + t_b) on the pairs its
    weights name. Every other entry agrees with it to within the rounding
    bound of _midpoint_violations, which grows as (||x_i|| + ||x_j||) /
    ||x_i - x_j|| (points centred) for the column of the pair (i, j): about
    1e-15 on Gaussian sets, about 1e-6 where two terminals are 1e-9 apart.

    The random tier builds each chunk's hull points from point coordinates
    (see _sparse_violations): one (c x n) coefficient matrix, the squared
    norms from the quadratic form with the basis Gram G = B B^T when the
    basis has fewer rows than d, and two GEMMs: O(c n (min(n, d) + m)) time
    per chunk of c points for a DirectionSet over n points, O(c |T| (d + m))
    for an array T, which is its own basis. Each random chunk's max, and
    the first index holding it, are bit-identical to the gather formula
    sum_a w_a T[idx_a]; every other entry is within the bound b_r derived
    there, which grows the same way on near-coincident terminals.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    D = _as_direction_matrix(T, pi.d)
    k = D.shape[0]
    basis = _hull_basis(pi, T, D)
    half, mirror = basis.half, basis.mirror
    rng = np.random.default_rng(seed)

    # Tier 1: vertices.
    yield _norm_gap(D, basis.PD), lambda r: _scatter_weights(k, [r], [1.0])

    # Tier 2: all pair midpoints, over one sign of each direction for a
    # DirectionSet. The generator expression drops the last Gram block
    # before Tier 3 starts.
    yield from (
        (v, lambda r, p=p, sign=sign: _midpoint_weights(k, half, mirror, p, sign, r))
        for p, sign, v in _midpoint_violations(D, basis)
    )

    # Tier 3: random hull points on sparse supports, from point coordinates.
    sizes = list(dict.fromkeys(min(s, k) for s in (2, 3, math.isqrt(k - 1) + 1)))
    n_each, extra = divmod(samples, len(sizes))
    for j, s in enumerate(sizes):
        n_s = n_each + (j < extra)
        alpha = np.ones(s)
        done = 0
        while done < n_s:
            c = min(_CHUNK_SPARSE, n_s - done)
            idx = rng.integers(0, k, size=(c, s))
            w = rng.dirichlet(alpha, size=c)
            v, _ = _sparse_violations(D, basis, idx, w)
            yield v, lambda r, idx=idx, w=w: _scatter_weights(k, idx[r], w[r])
            done += c


class _Basis(NamedTuple):
    """The directions' images and the point coordinates in which the random
    and midpoint tiers take their products (see _hull_basis)."""

    PD: np.ndarray  # (|T|, m) D Pi^T
    half: np.ndarray  # (h,) the rows R of D that the midpoint tier pairs
    mirror: np.ndarray | None  # (|T|,) row of -D[t] in a DirectionSet, else None
    B: np.ndarray  # (n, d) basis points
    PB: np.ndarray  # (n, m) B Pi^T
    ends: np.ndarray  # (|T|, q) basis indices of each direction
    coef: np.ndarray  # (|T|, q) their coefficients
    norms: np.ndarray  # (n,) ||B_p||
    image_norms: np.ndarray  # (n,) ||PB_p||
    frobenius: float  # ||Pi||_F
    gram: np.ndarray | None  # (n, n) B B^T when n < d, else None


def _hull_basis(pi: SketchMatrix, T, D: np.ndarray) -> _Basis:
    """The images PD = D Pi^T of T's directions D, and the basis in which the
    random and midpoint tiers take their products: the one place that tells
    a DirectionSet from an array.

    Every direction is D[t] = sum_q coef[t, q] * B[ends[t, q]] up to
    rounding, and PB = B Pi^T. A DirectionSet's basis is its points less
    their mean, with coefficients +-1 / ||x_i - x_j||: directions do not
    change under translation, and centring keeps a large common offset from
    costing digits. Its midpoint tier pairs the rows i < j (half), and one
    GEMM over those rows gives their images, each mirror row taking their
    exact negation, so PD[mirror] == -PD holds by construction. An array T
    is its own basis, with one-hot coefficients, and its midpoint tier
    pairs every row. The Gram G = B B^T is formed once per call when the
    basis has fewer rows than d, where products through it are cheaper than
    through B.
    """
    if isinstance(T, DirectionSet):
        half, mirror = T.half, T.mirror
        PD = np.empty((D.shape[0], pi.m))
        PD[half] = D[half] @ pi.entries.T
        PD[mirror[half]] = -PD[half]
        B = T.points - T.points.mean(axis=0)
        PB = B @ pi.entries.T
        inv = 1.0 / T.distances
        ends, coef = T.pairs, np.column_stack([inv, -inv])
    else:
        half, mirror = np.arange(D.shape[0]), None
        B = D
        PD = PB = D @ pi.entries.T
        ends, coef = half[:, None], np.ones((D.shape[0], 1))
    return _Basis(
        PD, half, mirror, B, PB, ends, coef,
        norms=np.linalg.norm(B, axis=1),
        image_norms=np.linalg.norm(PB, axis=1),
        frobenius=float(np.linalg.norm(pi.entries)),
        gram=B @ B.T if B.shape[0] < B.shape[1] else None,
    )


def _sparse_violations(D: np.ndarray, basis: _Basis, idx: np.ndarray, w: np.ndarray):
    """(v, b): v[r] is the violation at the hull point sum_a w[r, a] D[idx[r, a]]
    and b[r] bounds |v[r] - direct|, where direct is the gather formula
    sum_a w[r, a] D[idx[r, a]] (and the same on PD) evaluated in sub-blocks of
    _GATHER_ROWS rows. The chunk's max, and the first index holding it, are
    bit-identical to direct; every other entry is within its b[r].

    The hull point is x = c_r B for a coefficient row c_r over the basis
    points (see _hull_basis), with at most q s nonzeros for support s and q
    ends per direction. One np.bincount builds the chunk's (c x n) matrix C.
    The screen takes Pi x = C PB by GEMM, and ||x||^2 as the quadratic form
    rowsum((C G) o C) when the basis carries G = B B^T (n < d), else as the
    squared rows of C B: O(c n (min(n, d) + m)) time for c rows and n basis
    points, against O(c s (d + m)) gathered values for direct. A second
    np.bincount gives A below, from which the bound's sums are matrix-vector
    products.
    Each row is then screened against its own bound. With u the unit
    roundoff, A[r, p] = sum of |w[r, a] coef[t_a, q]| over the ends of row r
    at p, S_x = sum_p A[r, p] ||B_p||, S_p = sum_p A[r, p] ||PB_p|| and
    F = ||Pi||_F >= || |Pi| ||_2, first-order error terms in units of u are:
      - rounding of C (1 / distance, the product with w, and at most s
        terms summed per entry): s + 1 on S_x and S_p;
      - centring (each B_p is off by u ||B_p||; the offsets cancel exactly
        in the reals, since each direction's coefficients sum to 0): 1 on
        S_x and on F S_x;
      - the GEMMs C B and C PB: n on S_x and S_p;
      - PB = B Pi^T and PD = D Pi^T, formed by different products: d each
        on F S_x;
      - the reference gather itself: 2 for D = (x_i - x_j) / distance on
        S_x and F S_x, and s for its weighted sums on S_x and S_p (the
        directions obey sum_a w_a ||D_t|| <= S_x, to first order);
      - both pairs of norms (sum of squares and square root): d + 3 on S_x
        and m + 3 on S_p;
      - both subtractions of the norms: 2 on S_x and S_p.
    Every coefficient is at most K = n + 2 s + 2 max(d, m) + 9, so with
    gamma = K u / (1 - K u) the bound is 2 gamma ((1 + F) S_x + S_p) plus
    4 sqrt((n + s + d + m) tiny) for products and squares that underflow;
    the doubling covers the second-order terms and the rounding of b and of
    v +- b. The quadratic form adds its own term: G, C G and the row sums
    put ||x||^2 within e = gamma_q (S_x^2 + tiny (S_1 + 1)^2) of the
    reals, gamma_q for d + 2 n + 2 and S_1 = sum_p A[r, p] (the tiny term
    for products that underflow), so ||x|| is within e / ||x^|| of its
    computed value ||x^||; b adds 2 e / ||x^||, or is infinite where ||x^||^2
    <= 2 e. Every row with v[r] + b[r] >= max_j (v[j] - b[j]) (or a NaN) is
    recomputed with the direct formula; a row left on its screen value is
    strictly below the chunk's direct max.
    """
    PD, _, _, B, PB, ends, coef, norms, image_norms, frobenius, G = basis
    c, s = w.shape
    n, d, m = B.shape[0], D.shape[1], PD.shape[1]
    # np.take gathers rows far faster than fancy indexing with a 2-D index.
    heads = np.take(ends, idx, axis=0)  # (c, s, q) basis indices
    heads += (n * np.arange(c))[:, None, None]
    heads = heads.ravel()
    terms = (w[:, :, None] * np.take(coef, idx, axis=0)).ravel()
    C = np.bincount(heads, terms, minlength=c * n).reshape(c, n)
    A = np.bincount(heads, np.abs(terms), minlength=c * n).reshape(c, n)
    s_x, s_p, s_1 = A @ norms, A @ image_norms, A.sum(axis=1)
    if G is None:
        x = C @ B
        xx = np.einsum("ij,ij->i", x, x)
    else:
        xx = np.einsum("ij,ij->i", C @ G, C)
    np.maximum(xx, 0.0, out=xx)
    x_norm = np.sqrt(xx)
    px = C @ PB
    v = np.abs(np.sqrt(np.einsum("ij,ij->i", px, px)) - x_norm)
    u = np.finfo(np.float64).eps / 2
    tiny = np.finfo(np.float64).tiny
    K = n + 2 * s + 2 * max(d, m) + 9
    gamma = K * u / (1.0 - K * u)
    b = 2.0 * gamma * ((1.0 + frobenius) * s_x + s_p)
    b += 4.0 * math.sqrt((n + s + d + m) * tiny)
    Kq = d + 2 * n + 2
    # The tiny term is squared as (sqrt(tiny) S_1)^2, which cannot overflow.
    e = 2.0 * Kq * u / (1.0 - Kq * u) * (s_x**2 + (math.sqrt(tiny) * (s_1 + 1.0)) ** 2)
    b += np.divide(e, x_norm, out=np.full(c, np.inf), where=xx > e)
    rows = np.flatnonzero(~(v + b < np.max(v - b)))
    for lo in range(0, rows.size, _GATHER_ROWS):
        r = rows[lo : lo + _GATHER_ROWS]
        v[r] = _norm_gap(
            np.einsum("cs,csd->cd", w[r], np.take(D, idx[r], axis=0)),
            np.einsum("cs,csd->cd", w[r], np.take(PD, idx[r], axis=0)),
        )
    return v, b


def _midpoint_weights(k: int, half, mirror, p: int, sign: int, r: int) -> np.ndarray:
    """Simplex weights over T's k directions of row r of the (p, sign) chunk
    of _midpoint_violations, the midpoint (R_p + sign R_q)/2 of the rows R =
    T[half] (half and mirror as in _Basis). For a DirectionSet the weights
    name whichever of (a, b) and (-a, -b) comes first in the per-pair order
    (0, 1), (0, 2), ..., (k - 2, k - 1)."""
    q = p + (sign > 0) + r
    a, b = half[p], half[q] if sign > 0 else mirror[half[q]]
    if mirror is not None:
        a, b = min(sorted((a, b)), sorted((mirror[a], mirror[b])))
    return _scatter_weights(k, [a, b], [0.5, 0.5])


def _midpoint_violations(D: np.ndarray, basis: _Basis):
    """Yield (p, sign, v) with v[c] the violation at (R_p + sign R_q)/2 for
    q = p + (sign > 0) + c, where R = D[basis.half] are the h rows that the
    tier pairs: for each row p in order, one chunk per sign, empty chunks
    skipped. An array T (basis.mirror is None) takes the plus sign alone,
    every pair midpoint of R once, p < h - 1; a DirectionSet takes the signs
    (-1, 1), each row against itself and every later row with both signs,
    h^2 midpoints in all.

    Each R_q is sum_e coef[q, e] B[ends[q, e]] up to rounding, over the
    basis points B (see _hull_basis). Per block of _MIDPOINT_BLOCK rows p,
    with lo the smallest basis index that the block's columns q >= p
    reference, one GEMM over the d coordinates gives F = R_p B[lo:]^T, and
    g = sum_e F[:, ends[q, e] - lo] hcoef[q, e], hcoef = coef / 2, gives
    every <R_p, R_q> / 2; one GEMM on the images PR = PD[half] against the
    contiguous PR^T / 2 gives every <PR_p, PR_q> / 2, q >= p (q > p for the
    plus sign alone). So every ||(a +- b)/2||^2 = ||a||^2/4 + ||b||^2/4 +-
    <a, b>/2 of the block follows: the scalings by powers of 2 are exact.
    Beside D, the basis and the current block, the tier holds O(h (q + m))
    values: no h x n, n x h or h x d operand. Two kinds of entry are then
    recomputed with the direct formula on 0.5 * (a +- b), exactly as a
    per-pair scan evaluates them:
      - cancellation: ||(a+-b)/2||^2 <= _CANCEL s4 with s4 = max_p ||R_p||^2 / 2,
        or the same for the images (antipodal pairs t and -t, or Pi nearly
        killing the midpoint), where the Gram identity loses its relative
        accuracy. s4 bounds (||a||^2 + ||b||^2) / 4, so one scalar threshold
        per side flags a superset of the per-entry test
        ||a+-b||^2 <= _CANCEL (||a||^2 + ||b||^2);
      - near-max: entries whose Gram value, raised by its column's bound
        err[q], reaches the row's largest Gram value lowered by the bound of
        that value's column.
    With u the unit roundoff, gamma = K u / (1 - K u) and r = max_p ||R_p||,
    the Gram and direct values of ||(a+-b)/2||^2 differ by at most
    gamma (3 s4 + r W[q] / 2), where W[q] = sum_e |coef[q, e]|
    (||B[ends[q, e]]|| + tiny) + 2 tiny weighs column q's rounding, the
    tiny terms for products that underflow. Each entry of F is within
    gamma_d ||R_p|| ||B_e|| of <R_p, B_e>, the products with hcoef and
    their sum add q roundings, and R_q differs from sum_e coef B_e by a few
    roundings of sum_e |coef| ||B_e|| (the coefficients 1 / d_ij, the
    centring and the direction (x_i - x_j) / d_ij itself; none for an
    array, its own basis): that gives the r W[q] / 2. The squared norms,
    the two additions and the direct formula's sums and squares give the
    3 s4. On the images the difference is at most gamma (4 ps4 + tiny),
    ps4 = max_p ||PR_p||^2 / 2.
    K = q + 2 d + m + 8 covers every one of these sums, whose depths are d
    (F), q (the gathers), d (the squared norms and the direct formula), m
    (the same on the images) and at most 8 roundings around them. Outside
    the cancellation zone each Gram value is above its threshold t, so each
    norm differs by at most that difference / sqrt(t) (|sqrt a - sqrt b| <=
    |a - b| / sqrt a); err[q] doubles the sum over both sides to cover the
    square roots, the subtraction and the second-order terms. An entry left
    on its Gram value is therefore strictly below its chunk's direct max,
    which keeps each chunk's max and the first index holding it
    bit-identical to the scan. Negation is exact and x + (-y) = -((-x) + y)
    in floating point, so the direct value at a + (-1) b equals a per-pair
    scan's at (-a) + b, or at a + b' for b' = -b.
    """
    tiny = np.finfo(np.float64).tiny
    half, B = basis.half, basis.B
    signs = (1,) if basis.mirror is None else (-1, 1)
    ends, coef = basis.ends[half], basis.coef[half]
    hcoef = 0.5 * coef
    W = np.einsum("ij,ij->i", np.abs(coef), basis.norms[ends] + tiny) + 2.0 * tiny
    sq = np.einsum("ij,ij->i", D, D)[half]
    PR = basis.PD[half]
    h = half.size
    psq = np.einsum("ij,ij->i", PR, PR)
    PRt = np.multiply(PR.T, 0.5, order="C")
    sq4, psq4 = 0.25 * sq, 0.25 * psq
    s4, ps4 = 0.5 * float(sq.max()), 0.5 * float(psq.max())
    tq, tp = _CANCEL * s4, _CANCEL * ps4
    K = ends.shape[1] + 2 * D.shape[1] + PR.shape[1] + 8
    u = np.finfo(np.float64).eps / 2
    gamma = K * u / (1.0 - K * u)
    e_x = gamma * (3.0 * s4 + 0.5 * math.sqrt(2.0 * s4) * W)
    e_p = gamma * (4.0 * ps4 + tiny)
    # A zero threshold (every row, or every image, zero) sends every entry
    # to the direct formula through an infinite bound.
    with np.errstate(divide="ignore"):
        err = 2.0 * (e_x / np.sqrt(tq) + e_p / np.sqrt(tp))
    # Without the minus sign the diagonal q = p is no pair, so it is skipped:
    # column c of a block is q = i0 + skip + c, and row r's sign-s chunk
    # starts at column r + (s > 0) - skip.
    skip = 0 if -1 in signs else 1
    # tril_indices per (block rows, off): every block but the last shares one.
    trils = {}
    for i0 in range(0, h - skip, _MIDPOINT_BLOCK):
        i1 = min(i0 + _MIDPOINT_BLOCK, h - skip)
        cols = slice(i0 + skip, None)
        lo = int(ends[cols].min())
        F = D[half[i0:i1]] @ B[lo:].T
        g = np.take(F, ends[cols, 0] - lo, axis=1)
        g *= hcoef[cols, 0]
        for e in range(1, ends.shape[1]):
            term = np.take(F, ends[cols, e] - lo, axis=1)
            term *= hcoef[cols, e]
            g += term
            del term
        del F
        pg = PR[i0:i1] @ PRt[:, cols]
        s = sq4[i0:i1, None] + sq4[None, cols]
        ps = psq4[i0:i1, None] + psq4[None, cols]
        ec = err[cols]
        rows = np.arange(i1 - i0)
        chunks = []
        for sign in signs:
            # The plus sign comes last, so its sums take over g and pg.
            if sign > 0:
                q, pq = np.add(g, s, out=g), np.add(pg, ps, out=pg)
            else:
                q, pq = s - g, ps - pg
            zone = q <= tq
            zone |= pq <= tp
            # Negative sums, all in the cancellation zone, give NaN here.
            with np.errstate(invalid="ignore"):
                v = np.sqrt(pq, out=pq)
                v -= np.sqrt(q, out=q)
            del q, pq
            np.abs(v, out=v)
            zone = np.flatnonzero(zone)
            v.flat[zone] = -np.inf
            off = (sign > 0) - skip
            before = trils.get((i1 - i0, off))
            if before is None:
                before = trils[i1 - i0, off] = np.tril_indices(i1 - i0, off - 1)
            v[before] = -np.inf
            top = v.argmax(axis=1)
            floor = v[rows, top] - ec[top]
            near = np.flatnonzero(v + ec >= floor[:, None])
            # A row with every entry in the zone has floor -inf and flags
            # the entries left of its chunk too; they are dropped here.
            rs, cs = np.divmod(np.concatenate([zone, near]), v.shape[1])
            keep = cs >= rs + off
            rs, cs = rs[keep], cs[keep]
            for j in range(0, rs.size, _MIDPOINT_DIRECT):
                r, c = rs[j : j + _MIDPOINT_DIRECT], cs[j : j + _MIDPOINT_DIRECT]
                a, b = i0 + r, i0 + skip + c
                ra, rb = half[a], half[b]
                v[r, c] = _norm_gap(0.5 * (D[ra] + sign * D[rb]), 0.5 * (PR[a] + sign * PR[b]))
            chunks.append((sign, off, v))
        del g, s, pg, ps
        for r in range(i1 - i0):
            for sign, off, v in chunks:
                if r + off < v.shape[1]:
                    yield i0 + r, sign, v[r, r + off :]


def estimate_sampled(pi: SketchMatrix, T, samples: int, seed: int = 0) -> ChdEstimate:
    """Monte Carlo max violation over vertices, pair midpoints, and sampled
    hull points (see _violation_stream for the population).

    Vertices and midpoints are always evaluated, so the estimate is at least
    the worst vertex violation. Records the tier holding the witness and each
    tier's max (exact per chunk, see _violation_stream). Deterministic per
    seed.

    The witness is the first occurrence, in stream order, of the strict
    maximum: each chunk's first argmax, kept only when it beats every earlier
    chunk's (NaN never does). The loop does O(1) work per chunk (one argmax,
    two comparisons) and builds the witness's weights once, after the stream.
    """
    D = _as_direction_matrix(T, pi.d)
    k = D.shape[0]
    stream = _violation_stream(pi, T, samples, seed)
    # Chunk positions: 0 is the vertex chunk, 1 .. k - 1 the midpoint chunks,
    # the rest the random chunks.
    tiers = (islice(stream, 1), islice(stream, k - 1), stream)
    top = [-1.0, -1.0, -1.0]
    best_v, best = -1.0, None
    for t, chunks in enumerate(tiers):
        top_t = -1.0
        for v, builder in chunks:
            r = v.argmax()
            x = v[r]
            # best_v >= top_t, so a new best is always a new tier max.
            if x > top_t:
                top_t = x
                if x > best_v:
                    best_v, best = x, (t, builder, r)
        top[t] = top_t
    t, builder, r = best
    witness = make_hull_point(D, builder(int(r)))
    # The stream holds exactly k - 1 midpoint chunks, none when k == 1.
    names = ("vertex", "midpoint", "random")
    # Recompute at the witness so the reported value matches an independent
    # evaluation regardless of which vectorized path found it.
    return ChdEstimate(
        max_violation=violation(pi, witness),
        witness=witness,
        witness_tier=names[t],
        tier_max={names[i]: float(top[i]) for i in range(3) if i != 1 or k > 1},
    )


def _scatter_weights(k, idx, w):
    """Simplex weights over k directions: w[a] added at index idx[a]."""
    out = np.zeros(k)
    np.add.at(out, idx, w)
    return out

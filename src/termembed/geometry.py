"""Point-set model, the blocked Euclidean distance kernel, nearest-neighbor
lookup, and the normalized direction set.

Everything here is exact-arithmetic bookkeeping: no randomness, no tolerance
knobs beyond the documented ones. Distances use plain double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DuplicatePoint, EmptyInput, NonFinitePoint

# float64 values per distance-block temporary: 2 MB, about one core's L2
# cache; 32 MB blocks measured up to 1.9x slower.
BLOCK_ELEMENTS = 2**18
# The Gram screens (nearest_batch, PointSet.neighbor_scales,
# harness.evaluate) are trusted only while (||a|| + ||b||)^2 stays below this
# for every pair they compare, so no square in the screen or in the exact
# kernel overflows; rows within MAX_NORM always are.
_GRAM_MAX = np.finfo(np.float64).max / 4
# The largest point or query norm accepted (PointSet's invariant, and
# nearest_batch's query check). Between two such vectors the Gram screens'
# (||a|| + ||b||)^2 and the squared distances are at most (2 * 2^500)^2 =
# 2^1002. A sketch has ||Pi||_F <= sketch.MAX_FROBENIUS = 2^10, so the warm
# start's ||Pi (u - x_k)||^2 <= ||Pi||_F^2 ||u - x_k||^2 is at most 2^1022.
# The sampled queries of harness.sample_queries reach past the points (a
# far:s query lies up to about (1 + 2s) max ||x_i|| from the origin, a box
# query up to three times the bounding box's reach), so eval on a point set
# near the bound can reject its own queries.
MAX_NORM = 2.0**500
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# The shortest distance a direction (x_i - x_j) / ||x_i - x_j|| is formed
# over: sqrt(tiny). A kernel squared distance below tiny, the smallest normal
# float64, is inexact or 0, and the distance is then below 2**-511 too (the
# square root is correctly rounded). DirectionSet and the query solve refuse
# such a pair (_refuse_coincident).
MIN_DISTANCE = 2.0**-511
# Seed of the duplicate screen's Gaussian vector (_linked_rows).
_SCREEN_SEED = 20181022


@dataclass(frozen=True)
class PointSet:
    """An ordered set of n >= 1 distinct points in R^d (d >= 1), each finite
    with a norm of at most MAX_NORM. Construction checks this, in that order
    (DimensionMismatch or EmptyInput, NonFinitePoint naming the first bad
    row, DuplicatePoint with -0.0 equal to 0.0). points becomes a read-only
    float64 array; sq_norms keeps the check's squared norms ||x_i||^2.

    The duplicate check (_first_duplicate) screens before it compares: one
    matrix-vector product h = X r with a fixed seeded Gaussian r, and a sort
    of h, link the rows whose h lie within a rounding radius of a
    neighbour's, which every pair of equal rows does. The exact scan, one
    dict of row bytes in index order, then runs over the linked rows alone
    and names the pair the scan over all rows would: the first row equal to
    an earlier one, and that row's first occurrence. Distinct data links
    next to no rows, so the check costs about one pass over X and a sort
    of n values; where every row is linked it costs that plus the full
    scan. Distinct rows closer than MIN_DISTANCE pass here, and are refused
    where a direction between them is formed (DirectionSet and
    extension.solve_extension)."""

    points: np.ndarray  # (n, d), read-only
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)  # (n,), read-only

    def __post_init__(self):
        try:
            pts = np.asarray(self.points, dtype=np.float64)
        except ValueError:
            _stack_rows(self.points)  # rows of unequal length: DimensionMismatch
            raise
        if pts.ndim != 2:
            raise DimensionMismatch(f"expected 2-D point array, got ndim={pts.ndim}")
        if pts.shape[0] == 0:
            raise EmptyInput("point set must contain at least one point")
        if pts.shape[1] == 0:
            raise DimensionMismatch("points must have dimension >= 1")
        sq = _checked_sq_norms(pts, "point")
        pair = _first_duplicate(pts, sq)
        if pair is not None:
            raise DuplicatePoint("points {} and {} are identical".format(*pair))
        pts.setflags(write=False)
        sq.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "sq_norms", sq)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n

    @cached_property
    def neighbor_scales(self) -> tuple[np.ndarray, float]:
        """(nearest-neighbor distance of every point, diameter), computed on
        first use; the array is read-only. A single point has
        nearest-neighbor distance 1 and diameter 0.

        Both are bit-identical to the min and max of the exact blocked pass
        over all pairs (distance_row_blocks(X, X)), mostly without it. The
        shared Gram screen _gram_screen (which harness.evaluate also runs)
        gives, from row-blocked GEMMs X[block] X^T and the cached
        ||x_i||^2, every s_ij = ||x_i||^2 - 2<x_i, x_j> + ||x_j||^2 within
        b_ij = _gram_bound(d, ||x_i||, ||x_j||) of the exact kernel's squared
        distance; this method sets the diagonal (i, i) itself. Only the
        off-diagonal entries that could hold their row's minimum (s_ij - b_ij
        <= min_{k != i} (s_ik + b_ik)) or the global maximum (s_ij + b_ij >=
        max (s - b)) are recomputed with the exact kernel. That costs O(n^2 d)
        GEMM flops, about one exact entry per row on Gaussian data, and
        temporaries of at most about 1.5 BLOCK_ELEMENTS values together (no
        n x n array). Where every entry of some row is a candidate (as when
        the squares underflow, or on data far from the origin against its
        spread) it takes the exact pass. No square overflows: the points are
        within MAX_NORM.
        """
        if self.n == 1:
            nn, diameter = np.ones(1), 0.0
        else:
            nn, diameter = _screened_neighbor_scales(self) or _exact_neighbor_scales(self.points)
        nn.setflags(write=False)
        return nn, diameter

    @cached_property
    def norms(self) -> np.ndarray:
        """(n,) read-only Euclidean norms ||x_i||, the square roots of
        sq_norms."""
        norms = np.sqrt(self.sq_norms)
        norms.setflags(write=False)
        return norms


def _gram_bound(d: int, norms_a, norms_b, out=None) -> np.ndarray:
    """Bound b on the gap between a Gram screen entry s = ||a||^2 - 2<a, b> +
    ||b||^2 and the exact kernel's squared distance ||a - b||^2 in R^d, for
    points of the given norms (broadcast):

        b = (d + 4) eps (||a|| + ||b||)^2 + 4 d tiny.

    In units of eps (||a|| + ||b||)^2, (d + 2)/2 bound the screen's dot
    product (a GEMM's or a matrix-vector product's alike, gamma_d) and sums,
    (d + 5)/2 the kernel's differences, sum and square root, and 1/2 is left
    for rounding in b itself; 4 d tiny (the smallest normal number) covers
    products that underflow. b goes into out if given, with no temporary."""
    out = np.add(norms_a, norms_b, out=out)
    np.square(out, out=out)
    out *= (d + 4) * _EPS
    out += 4 * d * _TINY
    return out


def _exact_neighbor_scales(points: np.ndarray) -> tuple[np.ndarray, float]:
    """neighbor_scales from one exact blocked pass over all pairs (n >= 2)."""
    nn = np.empty(points.shape[0])
    diameter = 0.0
    for start, dist in distance_row_blocks(points, points):
        diameter = max(diameter, float(dist.max()))
        rows = np.arange(dist.shape[0])
        dist[rows, start + rows] = np.inf
        nn[start : start + dist.shape[0]] = dist.min(axis=1)
    return nn, diameter


def _gram_overflows(sq_a: np.ndarray, sq_b: np.ndarray) -> bool:
    """Whether a Gram screen of rows with squared norms sq_a against rows with
    squared norms sq_b could overflow: (max ||a|| + max ||b||)^2 above
    _GRAM_MAX; only the images that harness.evaluate screens can."""
    scale = math.sqrt(float(sq_a.max())) + math.sqrt(float(sq_b.max()))
    return not scale * scale <= _GRAM_MAX


def _screen_rows(n: int, *widths: int) -> int:
    """Rows per Gram screen block against n columns, within the distance
    budget: each (rows, n) array and each gathered (rows, width) block holds
    at most max(BLOCK_ELEMENTS / 8, n, width) values. 256 KB blocks measured
    as fast as 2 MB ones on a 600 x 256 set, with a lower peak RSS."""
    return max(1, BLOCK_ELEMENTS // (8 * max(n, *widths)))


def _gram_screen(A: np.ndarray, sq_a: np.ndarray, B: np.ndarray, sq_b: np.ndarray, rows, step: int):
    """Yield (block, lo, hi) over consecutive blocks of `step` entries of the
    index array rows. lo and hi are the Gram screen

        s_ij = ||a_i||^2 - 2 <a_i, b_j> + ||b_j||^2

    of A[block] against every row of B (one GEMM per block, with the cached
    squared norms sq_a and sq_b), minus and plus b_ij = _gram_bound(d,
    ||a_i||, ||b_j||), so the exact kernel's squared distance
    ||a_i - b_j||^2 lies in [lo_ij, hi_ij]. lo and hi are views into two
    buffers that the next block overwrites; the caller may write into them.
    Rows within MAX_NORM cannot overflow; the image screen of
    harness.evaluate checks _gram_overflows first."""
    d = A.shape[1]
    norms_a, norms_b = np.sqrt(sq_a), np.sqrt(sq_b)
    lo_buf, hi_buf, b_buf = np.empty((3, min(step, rows.size), B.shape[0]))
    for start in range(0, rows.size, step):
        block = rows[start : start + step]
        lo, hi, b = lo_buf[: block.size], hi_buf[: block.size], b_buf[: block.size]
        np.matmul(A[block], B.T, out=hi)
        hi *= -2.0
        hi += sq_a[block, None]
        hi += sq_b
        _gram_bound(d, norms_a[block, None], norms_b, b)
        np.subtract(hi, b, out=lo)
        hi += b
        yield block, lo, hi


def _pair_distances(A: np.ndarray, B: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Exact kernel distances ||A[i_t] - B[j_t]|| for index arrays i and j,
    each bit-identical to that entry of distance_row_blocks(A, B); the two
    gathered (chunk, d) arrays hold at most max(BLOCK_ELEMENTS, 2 d) values
    together."""
    out = np.empty(i.size)
    step = max(1, BLOCK_ELEMENTS // (2 * A.shape[1]))
    for start in range(0, i.size, step):
        part = slice(start, start + step)
        diff = A[i[part]]
        diff -= B[j[part]]
        out[part] = _kernel(diff[None])[0]
    return out


def _screened_neighbor_scales(X: PointSet):
    """neighbor_scales from the Gram screen of X against itself (see there),
    or None where every entry of some row is a nearest-neighbor candidate."""
    pts, sq = X.points, X.sq_norms
    step = _screen_rows(X.n, X.d)
    nn = np.empty(X.n)
    row_max = np.empty(X.n)  # max_{j != i} (s_ij + b_ij)
    floor = -np.inf  # max_{i != j} (s_ij - b_ij), below the squared diameter
    for block, lo, hi in _gram_screen(pts, sq, pts, sq, np.arange(X.n), step):
        # The diagonal (i, i) is no pair: -inf keeps it out of both maxima,
        # +inf out of the minimum.
        diag = (np.arange(block.size), block)
        lo[diag] = hi[diag] = -np.inf
        floor = max(floor, float(lo.max()))
        row_max[block] = hi.max(axis=1)
        lo[diag] = hi[diag] = np.inf
        cand = lo <= hi.min(axis=1, keepdims=True)
        counts = cand.sum(axis=1)
        if counts.max() == X.n - 1:
            return None
        a, j = np.nonzero(cand)
        dist = _pair_distances(pts, pts, block[a], j)
        nn[block] = np.minimum.reduceat(dist, np.cumsum(counts) - counts)
    diameter = 0.0
    for block, _, hi in _gram_screen(pts, sq, pts, sq, np.flatnonzero(row_max >= floor), step):
        hi[np.arange(block.size), block] = -np.inf
        a, j = np.nonzero(hi >= floor)
        diameter = max(diameter, float(_pair_distances(pts, pts, block[a], j).max(initial=0.0)))
    return nn, diameter


@dataclass(frozen=True)
class DirectionSet:
    """All n(n-1) normalized ordered differences of a point set, derived from
    its points alone (empty for n = 1).

    Row r holds the pair (i, j) = pairs[r], i != j, in lexicographic order,
    so r = i (n - 1) + j - (j > i); directions[r] = (x_i - x_j) /
    distances[r], with distances[r] = ||x_i - x_j|| the distance_matrix
    entry. half lists the rows with i < j in order, and mirror[r] is the row
    of (j, i). x_j - x_i is exactly -(x_i - x_j) and both give the same
    distance, so directions[mirror] == -directions and T = -T hold by
    construction (as values: a coordinate where x_i and x_j agree is +0.0 in
    both rows). A pair closer than MIN_DISTANCE, whose direction would be
    inf or NaN, raises DuplicatePoint naming it and its distance.
    """

    points: np.ndarray  # (n, d), the point set's rows
    directions: np.ndarray = field(init=False)  # (n(n-1), d)
    pairs: np.ndarray = field(init=False)  # (n(n-1), 2) int64
    distances: np.ndarray = field(init=False)  # (n(n-1),)
    half: np.ndarray = field(init=False)  # (n(n-1)/2,) rows with i < j
    mirror: np.ndarray = field(init=False)  # (n(n-1),) row of (j, i)

    def __post_init__(self):
        n = self.points.shape[0]
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        diffs = self.points[i]
        diffs -= self.points[j]
        # The kernel over the differences gives each distance_matrix entry
        # bit for bit; pairs closer than MIN_DISTANCE are refused.
        norms = _kernel(diffs[None])[0]
        _refuse_coincident(self.points, i, j, norms)
        diffs /= norms[:, None]
        self.points.setflags(write=False)
        derived = {
            "directions": diffs,
            "pairs": np.column_stack([i, j]).astype(np.int64),
            "distances": norms,
            "half": np.flatnonzero(i < j),
            "mirror": j * (n - 1) + i - (i > j),
        }
        for name, arr in derived.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.directions.shape[0]


def _first_duplicate(pts: np.ndarray, sq: np.ndarray) -> tuple[int, int] | None:
    """(j, i) for the first row i equal to an earlier row (IEEE comparison,
    so -0.0 equals 0.0) and j that row's first occurrence, or None when the
    rows are distinct; sq holds the rows' squared norms (finite). One exact
    scan, a dict keyed by each row's bytes (adding 0.0 maps -0.0 to +0.0),
    visits the rows of _linked_rows in index order, which hold every row
    equal to another."""
    seen: dict[bytes, int] = {}
    for i in _linked_rows(pts, sq):
        j = seen.setdefault((pts[i] + 0.0).tobytes(), i)
        if j != i:
            return j, i
    return None


def _linked_rows(pts: np.ndarray, sq: np.ndarray):
    """The rows of the duplicate screen's links, in index order (every row
    when n <= 2).

    h = X r for r of d standard normal values from a fixed seed, sorted. r
    is Gaussian, not structured: rows of small integers (binary rows, grid
    points) collide on a vector such as linspace. Two equal rows x get values
    that differ from x . r by at most gamma_d ||x|| ||r|| + d tiny each,
    whatever order the product sums in (tiny covers products that
    underflow), so they differ from each other by at most

        radius = d eps M ||r|| + 2 d tiny,  M = sqrt(2 (max ||x_i||^2 + d tiny)),

    M bounding max ||x_i|| with room for the rounding of sq and of radius
    itself. Every run of sorted values with consecutive gaps of at most
    radius is linked, so equal rows are both linked.
    """
    n, d = pts.shape
    if n <= 2:
        return range(n)
    r = np.random.default_rng(_SCREEN_SEED).standard_normal(d)
    h = pts @ r
    order = np.argsort(h)
    M = math.sqrt(2.0 * (float(sq.max()) + d * _TINY))
    radius = d * _EPS * M * math.sqrt(float(r @ r)) + 2 * d * _TINY
    link = np.diff(h[order]) <= radius
    linked = np.zeros(n, dtype=bool)
    linked[order[:-1][link]] = True
    linked[order[1:][link]] = True
    return np.flatnonzero(linked).tolist()


def _refuse_coincident(points: np.ndarray, i, j, dist: np.ndarray) -> None:
    """DuplicatePoint for the first t with dist[t] < MIN_DISTANCE, naming the
    pair (i[t], j[t]) (i broadcast against j) and its distance, where dist[t]
    is the kernel distance ||points[i[t]] - points[j[t]]||. Below
    MIN_DISTANCE the kernel's squared distance is below the smallest normal
    float64, inexact or 0, so no direction is formed from it."""
    bad = np.flatnonzero(dist < MIN_DISTANCE)
    if bad.size:
        t = int(bad[0])
        a, b = sorted((int(np.broadcast_to(i, dist.shape)[t]), int(j[t])))
        gap = math.hypot(*(points[a] - points[b]).tolist())  # no square to underflow
        raise DuplicatePoint(
            f"points {a} and {b} are {gap:.4g} apart, closer than MIN_DISTANCE = 2**-511 "
            f"(about {MIN_DISTANCE:.4g}), below which their squared distance underflows "
            "and their direction is undefined"
        )


def _checked_sq_norms(A: np.ndarray, what: str) -> np.ndarray:
    """The squared norms of the rows of A (PointSet keeps them as sq_norms);
    NonFinitePoint, naming the first bad row, unless every row is finite
    with a squared norm of at most MAX_NORM^2."""
    sq = np.einsum("ij,ij->i", A, A)
    bad = np.flatnonzero(~(sq <= MAX_NORM * MAX_NORM))  # NaN and inf fail too
    if bad.size:
        i = int(bad[0])
        if not np.all(np.isfinite(A[i])):
            raise NonFinitePoint(f"{what} {i} has a non-finite coordinate", i)
        norm = math.hypot(*A[i].tolist())  # finite where sq[i] overflowed
        raise NonFinitePoint(
            f"{what} {i} has norm {norm:.4g}, above the bound MAX_NORM = 2**500 "
            f"(about {MAX_NORM:.4g}) within which float64 holds every squared distance",
            i,
        )
    return sq


def build_point_set(raw, copy: bool = True) -> PointSet:
    """The PointSet of a list of d-vectors or an (n, d) array, in input
    order. An array is copied unless copy is False: then a float64 array
    becomes the set's points itself and is made read-only, which suits an
    array no one else holds, as a point reader returns. It only converts: an
    empty or 0-D array (a NumPy scalar too) raises EmptyInput, a 1-D array
    is one point, and list rows of unequal length raise DimensionMismatch;
    PointSet checks the rest (DimensionMismatch, EmptyInput, NonFinitePoint,
    DuplicatePoint).
    """
    if isinstance(raw, (np.ndarray, np.generic)):
        if raw.size == 0 or raw.ndim == 0:
            raise EmptyInput("point set must contain at least one point")
        raw = raw.reshape(1, -1) if raw.ndim == 1 else raw
        return PointSet(points=(np.array if copy else np.asarray)(raw, dtype=np.float64))
    return PointSet(points=_stack_rows(raw))


def _stack_rows(raw) -> np.ndarray:
    """The rows of raw, each flattened, stacked into an (n, d) array; a row
    of another length than the first raises DimensionMismatch naming it."""
    rows = [np.asarray(r, dtype=np.float64).reshape(-1) for r in raw]
    for i, r in enumerate(rows):
        if r.shape != rows[0].shape:
            raise DimensionMismatch(
                f"point {i} has dimension {r.shape[0]}, expected {rows[0].shape[0]}"
            )
    return np.vstack(rows) if rows else np.empty((0, 0))


def distance_row_blocks(A: np.ndarray, B: np.ndarray):
    """Yield (start, dist) with dist[a, j] = ||A[start + a] - B[j]|| over
    consecutive row blocks of A. Every temporary holds at most
    max(BLOCK_ELEMENTS, B.size) float64 values (a block has at least one
    row). Each entry comes from the same per-element einsum (_kernel)
    whatever the block."""
    rows = max(1, BLOCK_ELEMENTS // max(B.size, 1))
    for start in range(0, A.shape[0], rows):
        yield start, _kernel(A[start : start + rows, None, :] - B[None, :, :])


def _kernel(diff: np.ndarray) -> np.ndarray:
    """The Euclidean norms along the last axis of a 3-D difference array: the
    one place the distance formula is written."""
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def distance_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) Euclidean distances between the rows of A and of B."""
    out = np.empty((A.shape[0], B.shape[0]))
    for start, dist in distance_row_blocks(A, B):
        out[start : start + dist.shape[0]] = dist
    return out


def distances_to(u, X: PointSet, rows=None) -> np.ndarray:
    """Euclidean distances from u to every point of X, in index order.

    With rows (an index array), only to X.points[rows], in that order; each
    entry is bit-identical to the same entry of the full pass, since the
    kernel computes every entry alike. Costs one O(len(rows) d) pass."""
    u = np.asarray(u, dtype=np.float64).reshape(1, -1)
    if u.shape[1] != X.d:
        raise DimensionMismatch(f"query has dimension {u.shape[1]}, expected {X.d}")
    return distance_matrix(u, X.points if rows is None else X.points[rows])[0]


def nearest_batch(Q, X: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """(k, R): for every row u of Q, the index of the closest point of X and
    its distance, each bit-identical to argmin and min of distances_to(u, X)
    (ties go to the lowest index), mostly without that full exact pass; k is
    int64, R float64.

    This holds the query checks of every path that embeds a query: Q (any
    array-like) must be 2-D with X.d columns, else DimensionMismatch (an
    empty (0, *) batch passes whatever its width), and finite with every
    row's norm at most MAX_NORM, else NonFinitePoint. A row closer than
    MIN_DISTANCE to its nearest point is returned like any other (R may
    then read 0); the paths that embed it refuse it (_refuse_near_query).

    Row blocks of _screen_rows(n, d) queries each take one Gram screen
    (_gram_screen, one GEMM against X with the cached ||x_i||^2): every index
    that can hold its row's exact minimum has lo_ui <= min_j hi_uj, and only
    those candidates are recomputed with the exact kernel (_pair_distances),
    so no value that reaches k or R comes from the GEMM and no row depends on
    the batch around it. No square overflows: the points and the checked
    queries are within MAX_NORM.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or (Q.shape[0] and Q.shape[1] != X.d):
        raise DimensionMismatch(f"query array has shape {Q.shape}, expected (*, {X.d})")
    q = Q.shape[0]
    k, R = np.empty(q, dtype=np.int64), np.empty(q)
    if q == 0:
        return k, R
    sq_q = _checked_sq_norms(Q, "query")
    step = _screen_rows(X.n, X.d)
    for block, lo, hi in _gram_screen(Q, sq_q, X.points, X.sq_norms, np.arange(q), step):
        a, j = np.nonzero(lo <= hi.min(axis=1, keepdims=True))
        dist = _pair_distances(Q, X.points, block[a], j)
        counts = np.bincount(a, minlength=block.size)
        R[block] = np.minimum.reduceat(dist, np.cumsum(counts) - counts)
        # nonzero lists each row's candidates in ascending index order, so a
        # row's first hit of its minimum is the lowest such index.
        hit = np.flatnonzero(dist == R[block][a])
        k[block] = j[hit[np.searchsorted(a[hit], np.arange(block.size))]]
    return k, R


def _refuse_near_query(u: np.ndarray, X: PointSet, k: int, R: float, i: int = 0) -> None:
    """DuplicatePoint naming query i and point k when u, whose nearest point
    is x_k at distance R (nearest_batch's k and R), is closer than
    MIN_DISTANCE to x_k but not IEEE equal to it (-0.0 equals 0.0). Below
    MIN_DISTANCE the squared distance underflows, R may read 0, and u would
    be embedded as x_k. The coordinates are compared only when R is below
    it, so a query away from the points costs one float comparison."""
    if R < MIN_DISTANCE and np.any(u != X.points[k]):
        gap = math.hypot(*(u - X.points[k]).tolist())  # no square to underflow
        raise DuplicatePoint(
            f"query {i} is {gap:.4g} from point {k}, closer than MIN_DISTANCE = 2**-511 "
            f"(about {MIN_DISTANCE:.4g}) but not equal to it: their squared distance "
            "underflows, so the query cannot be told from the point"
        )


def nearest_point(u, X: PointSet) -> int:
    """Index of the closest point of X to u (ties go to the lowest index):
    nearest_batch on u as one row, with its checks (DimensionMismatch for a
    u of the wrong width, NonFinitePoint for a NaN or infinite coordinate or
    a norm above MAX_NORM)."""
    return int(nearest_batch(np.reshape(np.asarray(u, np.float64), (1, -1)), X)[0][0])


def direction_set(X: PointSet) -> DirectionSet:
    """The DirectionSet of X: all n(n-1) unit directions (x_i - x_j)/||x_i -
    x_j|| in lexicographic (i, j) order."""
    return DirectionSet(points=X.points)
